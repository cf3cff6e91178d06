/**
 * @file
 * Dependency-free JSON record/document emitter shared by the bench
 * snapshot writers (`BENCH_*.json`) and the sweep service's JSONL
 * output. Records are flat objects assembled key-by-key; values are
 * typed by the Add overload. The writer deliberately has no
 * pretty-printing knobs or nesting beyond one object per record — the
 * consumers are diff tools, gates, and plot scripts, not humans.
 *
 * Doubles are formatted with std::to_chars (shortest round-trip form):
 * locale-independent by specification, where the previous
 * snprintf("%.17g") emitted "1,5" under a comma-decimal locale (e.g.
 * de_DE) and silently produced invalid JSON — breaking the
 * bench-regression gate on any machine with a non-C LC_NUMERIC.
 */
#ifndef TIQEC_COMMON_JSON_H
#define TIQEC_COMMON_JSON_H

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/text_format.h"

namespace tiqec::common {

class JsonRecord
{
  public:
    void
    Add(const std::string& key, const std::string& value)
    {
        // Built up with += (not `"..." + Escape(...)`): the rvalue
        // operator+ chain trips GCC 12's -Wrestrict false positive
        // (PR 105651) on every including TU.
        std::string quoted = "\"";
        quoted += Escape(value);
        quoted += "\"";
        AddRaw(key, quoted);
    }
    void
    Add(const std::string& key, const char* value)
    {
        Add(key, std::string(value));
    }
    void
    Add(const std::string& key, std::int64_t value)
    {
        AddRaw(key, std::to_string(value));
    }
    void
    Add(const std::string& key, int value)
    {
        AddRaw(key, std::to_string(value));
    }
    void
    Add(const std::string& key, bool value)
    {
        AddRaw(key, value ? "true" : "false");
    }
    void
    Add(const std::string& key, double value)
    {
        // Shortest exact round-trip form; JSON has no NaN/Inf, so
        // non-finite values are emitted as null.
        if (std::isfinite(value)) {
            AddRaw(key, text::ExactDouble(value));
        } else {
            AddRaw(key, "null");
        }
    }
    void
    Add(const std::string& key, const std::vector<std::int64_t>& values)
    {
        std::string array = "[";
        for (size_t i = 0; i < values.size(); ++i) {
            if (i > 0) {
                array += ",";
            }
            array += std::to_string(values[i]);
        }
        AddRaw(key, array + "]");
    }

    const std::string&
    body() const
    {
        return body_;
    }

    /** `{...}` form of the record. */
    std::string
    Object() const
    {
        return "{" + body_ + "}";
    }

    /** JSON string body of `s`. Valid UTF-8 passes through unchanged;
     *  each maximal ill-formed subsequence becomes the escape `\ufffd`
     *  (U+FFFD), so no input byte can make a record invalid JSON. */
    static std::string
    Escape(const std::string& s)
    {
        std::string out;
        out.reserve(s.size());
        for (size_t i = 0; i < s.size();) {
            const char c = s[i];
            if (static_cast<unsigned char>(c) >= 0x80) {
                const int len = Utf8Length(s, i);
                if (len > 0) {
                    out.append(s, i, static_cast<size_t>(len));
                } else {
                    out += "\\ufffd";
                }
                i += static_cast<size_t>(len > 0 ? len : -len);
                continue;
            }
            if (c == '"' || c == '\\') {
                out += '\\';
                out += c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
            ++i;
        }
        return out;
    }

  private:
    /** Length of the well-formed UTF-8 character at `s[i]`, a byte
     *  >= 0x80 (Unicode Table 3-7), or minus the length of its maximal
     *  ill-formed subpart, which is at least 1. */
    static int
    Utf8Length(const std::string& s, size_t i)
    {
        const auto lead = static_cast<unsigned char>(s[i]);
        int trail = 0;
        unsigned char lo = 0x80;
        unsigned char hi = 0xBF;
        if (lead >= 0xC2 && lead <= 0xDF) {
            trail = 1;
        } else if (lead >= 0xE0 && lead <= 0xEF) {
            trail = 2;
            lo = lead == 0xE0 ? 0xA0 : 0x80;  // overlong
            hi = lead == 0xED ? 0x9F : 0xBF;  // surrogates
        } else if (lead >= 0xF0 && lead <= 0xF4) {
            trail = 3;
            lo = lead == 0xF0 ? 0x90 : 0x80;  // overlong
            hi = lead == 0xF4 ? 0x8F : 0xBF;  // beyond U+10FFFF
        } else {
            return -1;  // a continuation byte, C0, C1 or F5..FF
        }
        int len = 1;
        for (; len <= trail && i + len < s.size(); ++len) {
            const auto b = static_cast<unsigned char>(s[i + len]);
            if (b < lo || b > hi) {
                break;
            }
            lo = 0x80;
            hi = 0xBF;
        }
        return len == trail + 1 ? len : -len;
    }

    void
    AddRaw(const std::string& key, const std::string& raw)
    {
        if (!body_.empty()) {
            body_ += ",";
        }
        body_ += "\"";
        body_ += Escape(key);
        body_ += "\":";
        body_ += raw;
    }

    std::string body_;
};

}  // namespace tiqec::common

#endif  // TIQEC_COMMON_JSON_H

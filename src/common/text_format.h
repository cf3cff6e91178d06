/**
 * @file
 * Locale-independent text formatting/parsing primitives shared by every
 * serializer (schedule CSV, DEM/noise-profile/circuit artifacts, store
 * payloads, bench JSON). Three disciplines live here:
 *
 *  - exact doubles: `ExactDouble` emits the shortest decimal form that
 *    parses back to the identical double (std::to_chars), which is what
 *    makes serialize -> parse -> re-serialize byte-stable;
 *  - strict fields: `StripCr` tolerates CRLF input (git autocrlf /
 *    Windows checkouts) and `SplitViews` preserves empty fields so a
 *    short or trailing-empty row is an explicit error, never a silent
 *    truncation;
 *  - one line reader: `LineReader` is the reader behind every
 *    tagged-line artifact format (the DEM, noisy-circuit and
 *    noise-profile texts and the artifact store's payloads), so the
 *    rules for a missing, malformed or trailing line are stated once.
 *    The schedule CSV (comma fields under a header row) takes its lines
 *    from `LineReader::Next` and splits them with `SplitViews`; program
 *    text and request lines have grammars of their own and keep their
 *    own loops.
 *
 * Everything routes through std::to_chars / std::from_chars, which are
 * locale-independent by specification — snprintf("%g") is not: under a
 * comma-decimal locale it emits "1,5" and corrupts every downstream
 * parser.
 */
#ifndef TIQEC_COMMON_TEXT_FORMAT_H
#define TIQEC_COMMON_TEXT_FORMAT_H

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace tiqec::text {

/** Shortest exact decimal form: parsing it back yields the identical
 *  double (round-trip guarantee), and the output never depends on the
 *  process locale. */
inline std::string
ExactDouble(double value)
{
    std::array<char, 32> buf;
    const auto [ptr, ec] =
        std::to_chars(buf.data(), buf.data() + buf.size(), value);
    if (ec != std::errc()) {
        throw std::invalid_argument("ExactDouble: value does not format");
    }
    return std::string(buf.data(), ptr);
}

/** Parses all of `field` as a `T`, or throws "bad integer|number
 *  '<field>' in <context()>"; `context` is called only on failure. */
template <typename T, typename Context>
T
ParseAs(std::string_view field, const Context& context)
{
    T value{};
    const auto [ptr, ec] =
        std::from_chars(field.data(), field.data() + field.size(), value);
    if (ec != std::errc() || ptr != field.data() + field.size()) {
        throw std::invalid_argument(
            (std::is_integral_v<T> ? "bad integer '" : "bad number '") +
            std::string(field) + "' in " + context());
    }
    return value;
}

/** Parses a double written by `ExactDouble` (or any plain decimal /
 *  scientific literal). The whole field must be consumed. */
inline double
ParseDouble(std::string_view field, const std::string& context)
{
    return ParseAs<double>(field, [&] { return context; });
}

/** Parses a 32-bit integer; the whole field must be consumed. */
inline std::int32_t
ParseInt32(std::string_view field, const std::string& context)
{
    return ParseAs<std::int32_t>(field, [&] { return context; });
}

/** Parses a 64-bit integer; the whole field must be consumed. */
inline std::int64_t
ParseInt64(std::string_view field, const std::string& context)
{
    return ParseAs<std::int64_t>(field, [&] { return context; });
}

/** Drops one trailing '\r' (CRLF input read by LF-splitting getline). */
inline void
StripCr(std::string& line)
{
    if (!line.empty() && line.back() == '\r') {
        line.pop_back();
    }
}

/** Splits `line` on `delim` into views of it, preserving empty fields. */
inline void
SplitViews(std::string_view line, char delim,
           std::vector<std::string_view>& fields)
{
    fields.clear();
    for (;;) {
        const size_t end = line.find(delim);
        fields.push_back(line.substr(0, end));
        if (end == std::string_view::npos) {
            return;
        }
        line.remove_prefix(end + 1);
    }
}

/**
 * Splits on `delim`, preserving empty fields — "a,b," yields
 * {"a","b",""} where a getline loop would silently drop the trailing
 * empty field and turn a malformed row into a miscounted one.
 */
inline std::vector<std::string>
SplitFields(const std::string& line, char delim)
{
    std::vector<std::string_view> views;
    SplitViews(line, delim, views);
    return {views.begin(), views.end()};
}

/**
 * Reads a tagged-line text: lines of space-separated fields, most led by
 * a tag. A line is named by its tag ("counts line", fields "in counts")
 * or, as a list element, by a name and index ("edge 3"). Each line loses
 * one trailing '\r', and a failed check throws std::invalid_argument:
 *  - a missing line: "truncated: missing <line>";
 *  - a wrong tag or field count: "malformed <line>: '<text>'";
 *  - a bad field: "bad integer|number '<field>' in <where>";
 *  - `ExpectEnd`: "trailing content: '<text>'" for any non-empty line
 *    left, after blank lines too.
 * Error text is built only on failure. The text and the names passed in
 * must outlive the reader; `fields()` views the current line.
 */
class LineReader
{
  public:
    explicit LineReader(std::string_view text) : rest_(text) {}

    /** Throws "missing '<header>' header" unless the next line is
     *  `header`. */
    void
    ExpectHeader(std::string_view header)
    {
        if (!Next() || line_ != header) {
            throw std::invalid_argument("missing '" + std::string(header) +
                                        "' header");
        }
    }

    /** Reads the next line: tag `tag`, `num_fields` fields with the tag
     *  (`TaggedAtLeast`: at least that many). A list element passes its
     *  `name` and `index`. */
    void
    Tagged(std::string_view tag, size_t num_fields,
           std::string_view name = {}, std::int64_t index = -1)
    {
        Untagged(name.empty() ? tag : name, index);
        if (fields_.size() != num_fields || fields_[0] != tag) {
            Malformed();
        }
    }

    void
    TaggedAtLeast(std::string_view tag, size_t min_fields,
                  std::string_view name = {}, std::int64_t index = -1)
    {
        Untagged(name.empty() ? tag : name, index);
        if (fields_.size() < min_fields || fields_[0] != tag) {
            Malformed();
        }
    }

    /** Reads the next line with no tag or field-count check. */
    void
    Untagged(std::string_view name, std::int64_t index)
    {
        name_ = name;
        index_ = index;
        if (!Next()) {
            throw std::invalid_argument("truncated: missing " + What());
        }
        SplitViews(line_, ' ', fields_);
    }

    /** The next `n` lines unsplit, newlines included (an embedded text);
     *  a missing one throws "truncated: missing <name> line <i>". */
    std::string_view
    Block(std::int64_t n, std::string_view name)
    {
        const std::string_view start = rest_;
        for (std::int64_t i = 0; i < n; ++i) {
            if (!Next()) {
                throw std::invalid_argument("truncated: missing " +
                                            std::string(name) + " line " +
                                            std::to_string(i));
            }
        }
        return start.substr(0, start.size() - rest_.size());
    }

    void
    ExpectEnd()
    {
        while (Next()) {
            if (!line_.empty()) {
                throw std::invalid_argument("trailing content: '" +
                                            std::string(line_) + "'");
            }
        }
    }

    /**
     * Moves to the next line, unsplit and unchecked, or returns false at
     * the end (getline semantics: a last line without a newline counts).
     * A grammar of its own, the schedule CSV, loops on this and `line()`.
     */
    bool
    Next()
    {
        if (rest_.empty()) {
            return false;
        }
        const size_t end = std::min(rest_.find('\n'), rest_.size());
        line_ = rest_.substr(0, end);
        rest_.remove_prefix(std::min(end + 1, rest_.size()));
        if (!line_.empty() && line_.back() == '\r') {
            line_.remove_suffix(1);
        }
        return true;
    }

    std::string_view line() const { return line_; }
    const std::vector<std::string_view>& fields() const { return fields_; }

    /** Field `k` of the current line, which the caller knows exists. */
    std::int32_t Int32(size_t k) const { return Parse<std::int32_t>(k); }
    std::int64_t Int64(size_t k) const { return Parse<std::int64_t>(k); }
    double Double(size_t k) const { return Parse<double>(k); }

    /** A finite number in [0, 1], else "probability out of [0,1] in
     *  <where>". */
    double
    Probability(size_t k) const
    {
        const double p = Double(k);
        if (!std::isfinite(p) || p < 0.0 || p > 1.0) {
            throw std::invalid_argument("probability out of [0,1] in " +
                                        Where());
        }
        return p;
    }

    /** The current line for an error message: its tag, or "<name>
     *  <index>". */
    std::string
    Where() const
    {
        return index_ < 0 ? std::string(name_)
                          : std::string(name_) + ' ' + std::to_string(index_);
    }

    /** Throws "malformed <line>: '<text>'" for the current line. */
    [[noreturn]] void
    Malformed() const
    {
        throw std::invalid_argument("malformed " + What() + ": '" +
                                    std::string(line_) + "'");
    }

  private:
    std::string
    What() const
    {
        return index_ < 0 ? std::string(name_) + " line" : Where();
    }

    template <typename T>
    T
    Parse(size_t k) const
    {
        return ParseAs<T>(fields_[k], [this] { return Where(); });
    }

    std::string_view rest_;
    std::string_view line_;
    std::vector<std::string_view> fields_;
    std::string_view name_;
    std::int64_t index_ = -1;
};

}  // namespace tiqec::text

#endif  // TIQEC_COMMON_TEXT_FORMAT_H

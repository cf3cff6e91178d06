#include "analysis/diagnostic.h"

#include <array>
#include <sstream>

namespace tiqec::analysis {

std::span<const std::string_view>
AllRuleIds()
{
    static constexpr std::array<std::string_view, 28> kRules = {
        kRuleIonOverlap,
        kRuleTrapOverlap,
        kRuleSegmentOverlap,
        kRuleJunctionCapacity,
        kRuleDurationLut,
        kRuleDagOrder,
        kRulePositionTrace,
        kRuleScheduleStats,
        kRuleQubitRange,
        kRuleRecordRange,
        kRuleProbabilityRange,
        kRuleMeasuredOut,
        kRuleDetectorDeterminism,
        kRuleDemProbabilityRange,
        kRuleDemDetectorRange,
        kRuleDemDuplicateEdge,
        kRuleDemHyperedgeEdges,
        kRuleDemMassConservation,
        kRuleDemDetectorCoverage,
        kRuleDemLogicalOperator,
        kRuleDemDistance,
        kRuleProgramPatch,
        kRuleProgramLiveness,
        kRuleProgramAdjacency,
        kRuleProgramMergeState,
        kRuleProgramObservable,
        kRuleProgramBasis,
        kRuleProgramDistance,
    };
    return kRules;
}

std::string
FormatDiagnostics(std::string_view subject,
                  const std::vector<Diagnostic>& diagnostics, int max_listed)
{
    const int num_errors = static_cast<int>(diagnostics.size());
    std::ostringstream os;
    os << "artifact validation failed: " << subject << " has " << num_errors
       << (num_errors == 1 ? " error" : " errors");
    int listed = 0;
    for (const Diagnostic& d : diagnostics) {
        if (listed == max_listed) {
            os << "; ... and " << (num_errors - listed) << " more";
            break;
        }
        os << (listed == 0 ? ": " : "; ") << "[" << d.rule << "] "
           << d.location << ": " << d.message;
        ++listed;
    }
    return os.str();
}

}  // namespace tiqec::analysis

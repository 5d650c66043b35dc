#include "cxlalloc/audit.h"

#include "common/assert.h"

namespace cxlalloc {

std::string
AuditReport::to_string() const
{
    static constexpr const char* kHeaps[] = {"small slab", "large slab",
                                             "huge desc"};
    static constexpr const char* kLaws[] = {
        "global-list",  "local-list",     "pending-entry", "slab-home",
        "free-counter", "remote-balance", "huge-desc"};
    std::string out = "audit: " + std::to_string(violations.size()) +
                      " violation(s), " + std::to_string(live_blocks) +
                      " live block(s), " + std::to_string(pending_frees) +
                      " pending free(s), " + std::to_string(parked_frees) +
                      " parked free(s)";
    for (const AuditViolation& v : violations) {
        out += "\n  shard " + std::to_string(v.shard) + ' ' +
               kHeaps[static_cast<int>(v.heap)] + ' ' +
               std::to_string(v.slab) + " [" +
               kLaws[static_cast<int>(v.law)] + "] " + v.what +
               ": expected " + std::to_string(v.expected) + ", actual " +
               std::to_string(v.actual);
    }
    return out;
}

void
AuditReport::require_ok() const
{
    if (!ok()) {
        CXL_PANIC(to_string().c_str());
    }
}

} // namespace cxlalloc

#include "pod/crashpoint.h"

#include <map>
#include <mutex>

#include "common/assert.h"

namespace pod {

namespace {
std::mutex g_mu;

/// Node-based so pointers handed out by find() survive later add() calls.
std::map<CrashPointId, CrashPointInfo>&
points()
{
    static std::map<CrashPointId, CrashPointInfo> map;
    return map;
}
} // namespace

CrashPointRegistry&
CrashPointRegistry::instance()
{
    static CrashPointRegistry registry;
    return registry;
}

void
CrashPointRegistry::add(CrashPointId id, std::string_view name,
                        std::string_view site, PointKind kind)
{
    std::lock_guard<std::mutex> lock(g_mu);
    auto [it, inserted] = points().try_emplace(
        id, CrashPointInfo{id, std::string(name), std::string(site), kind});
    if (!inserted) {
        CXL_ASSERT(it->second.name == name && it->second.kind == kind,
                   "point id registered twice with different names or "
                   "kinds");
    }
}

const CrashPointInfo*
CrashPointRegistry::find(CrashPointId id) const
{
    std::lock_guard<std::mutex> lock(g_mu);
    auto it = points().find(id);
    return it != points().end() ? &it->second : nullptr;
}

const CrashPointInfo*
CrashPointRegistry::find_name(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(g_mu);
    for (const auto& [id, info] : points())
        if (info.name == name)
            return &info;
    return nullptr;
}

std::vector<CrashPointInfo>
CrashPointRegistry::all(PointKind kind) const
{
    std::lock_guard<std::mutex> lock(g_mu);
    std::vector<CrashPointInfo> out;
    for (const auto& [id, info] : points())
        if (info.kind == kind)
            out.push_back(info);
    return out;
}

std::string
crashpoint_name(CrashPointId id)
{
    const CrashPointInfo* info = CrashPointRegistry::instance().find(id);
    return info != nullptr ? info->name : "crashpoint:" + std::to_string(id);
}

} // namespace pod

#include "sched/hook.h"

namespace sched {

constinit thread_local Listener* t_listener = nullptr;

} // namespace sched

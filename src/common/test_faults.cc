#include "common/test_faults.h"

namespace cxlcommon::test_faults {

bool skip_swcc_publish_flush = false;
bool skip_hazard_publish_flush = false;
bool skip_record_publish_flush = false;
bool skip_dirty_line_tracking = false;
bool free_pin_at_detach = false;

void
reset()
{
    skip_swcc_publish_flush = false;
    skip_hazard_publish_flush = false;
    skip_record_publish_flush = false;
    skip_dirty_line_tracking = false;
    free_pin_at_detach = false;
}

} // namespace cxlcommon::test_faults

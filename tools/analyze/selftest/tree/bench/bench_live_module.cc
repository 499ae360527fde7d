// A caller for the live module and the clean headers nothing else
// includes, so none of them is an orphan.
#include "ops/live_module.h"
#include "kernels/good_layer.h"
#include "observability/metric_names.h"

#include "ops/live_module.h"

#include "ops/orphan_module.h"

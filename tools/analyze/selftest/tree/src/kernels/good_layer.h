#pragma once
#include "code/binary_code.h"

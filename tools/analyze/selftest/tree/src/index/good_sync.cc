#include "common/sync.h"
// a comment mentioning std::mutex is fine
#define HAMMING_USES_WRAPPERS 1  // so is one after a directive: std::mutex
hamming::Mutex mu;

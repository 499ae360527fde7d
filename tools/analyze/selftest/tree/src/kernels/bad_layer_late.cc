// Seeded [layering]: the newline a backslash continues inside a string
// literal still ends line 3, so the include is reported on line 5.
inline constexpr char kBanner[] = "hamming\
 kernels";
#include "mapreduce/job.h"

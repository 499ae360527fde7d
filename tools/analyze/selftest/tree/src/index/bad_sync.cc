// Seeded [raw-sync]: a raw mutex outside src/common/.
#include <mutex>
std::mutex mu;

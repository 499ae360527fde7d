// Seeded [raw-sync]: raw primitives hidden in macro bodies, one after a
// stringizing '#' and one on a continuation line.
#define GUARD(m) std::lock_guard<hamming::Mutex> g(m)
#define NAMED_LOCK(name) const char* name##_name = #name; std::mutex name
#define WAIT_ON(cv) \
  std::condition_variable_any cv

// Clang-thread-safety-annotated synchronization primitives.
//
// Every mutex in the repository is a hamming::Mutex from this header, and
// every member it protects is tagged HAMMING_GUARDED_BY(mu_) — so under
// Clang the attempt/speculation/commit protocol of the MapReduce runtime
// is checked at *compile time* (-Wthread-safety, promoted to an error by
// the HAMMING_THREAD_SAFETY CMake option), not just by whatever
// interleavings TSan happens to observe at run time. Off-Clang the
// annotation macros expand to nothing and the wrappers compile down to
// the std primitives they hold, so GCC builds are unchanged.
//
// The repository checker's [raw-sync] pass (tools/analyze) enforces the
// other half of the contract: no raw std::mutex / std::condition_variable
// / std::thread outside src/common/, so there is no unannotated
// synchronization for the analysis to miss.
//
// Idiom notes:
//  * Condition waits are written as explicit loops —
//      while (!ready_) cv_.Wait(&mu_);
//    — not predicate lambdas. A lambda body is analyzed as its own
//    function, which does not hold the capability, so predicate-style
//    waits over guarded members cannot pass -Werror=thread-safety.
//  * Code that must acquire two locks of the same class (e.g.
//    Counters::operator=) orders them by address and opts out locally
//    with HAMMING_NO_THREAD_SAFETY_ANALYSIS; the analysis cannot see
//    through the aliasing.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>

// ---------------------------------------------------------------------------
// Annotation macros (Clang's -Wthread-safety attributes; no-ops elsewhere)
// ---------------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define HAMMING_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#if !defined(HAMMING_THREAD_ANNOTATION_)
#define HAMMING_THREAD_ANNOTATION_(x)  // no-op off Clang
#endif

/// Member is protected by the given capability (mutex).
#define HAMMING_GUARDED_BY(x) HAMMING_THREAD_ANNOTATION_(guarded_by(x))
/// Pointer member whose *pointee* is protected by the capability.
#define HAMMING_PT_GUARDED_BY(x) HAMMING_THREAD_ANNOTATION_(pt_guarded_by(x))
/// Function requires the capability to be held by the caller.
#define HAMMING_REQUIRES(...) \
  HAMMING_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
/// Function acquires the capability and holds it on return.
#define HAMMING_ACQUIRE(...) \
  HAMMING_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
/// Function releases the capability (held on entry).
#define HAMMING_RELEASE(...) \
  HAMMING_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
/// Function must NOT be called with the capability held (deadlock guard).
#define HAMMING_EXCLUDES(...) \
  HAMMING_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
/// Declares lock-acquisition ordering between two mutexes.
#define HAMMING_ACQUIRED_BEFORE(...) \
  HAMMING_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define HAMMING_ACQUIRED_AFTER(...) \
  HAMMING_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
/// Type is a capability (applied to the Mutex class itself).
#define HAMMING_CAPABILITY(x) HAMMING_THREAD_ANNOTATION_(capability(x))
/// RAII type that acquires on construction / releases on destruction.
#define HAMMING_SCOPED_CAPABILITY \
  HAMMING_THREAD_ANNOTATION_(scoped_lockable)
/// Function returns a reference to the capability guarding its result.
#define HAMMING_RETURN_CAPABILITY(x) \
  HAMMING_THREAD_ANNOTATION_(lock_returned(x))
/// Escape hatch: body is not analyzed (address-ordered double locking,
/// init/teardown code the analysis cannot model). Use sparingly; every
/// use should carry a comment saying why.
#define HAMMING_NO_THREAD_SAFETY_ANALYSIS \
  HAMMING_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace hamming {

/// \brief A std::mutex with capability annotations.
///
/// Satisfies Lockable (lock/unlock/try_lock) so it still composes with
/// std machinery inside src/common/; annotated Lock/Unlock spellings are
/// provided for code that takes the lock manually.
class HAMMING_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() HAMMING_ACQUIRE() { mu_.lock(); }
  void Unlock() HAMMING_RELEASE() { mu_.unlock(); }
  bool TryLock() HAMMING_THREAD_ANNOTATION_(try_acquire_capability(true)) {
    return mu_.try_lock();
  }

  // Lockable spellings (same annotations), used by CondVar internally.
  void lock() HAMMING_ACQUIRE() { mu_.lock(); }
  void unlock() HAMMING_RELEASE() { mu_.unlock(); }
  bool try_lock() HAMMING_THREAD_ANNOTATION_(try_acquire_capability(true)) {
    return mu_.try_lock();
  }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// \brief RAII lock, scope-shaped like std::lock_guard.
class HAMMING_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) HAMMING_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() HAMMING_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// \brief RAII lock that can be released before scope exit (the
/// lock-commit-unlock-then-log shape of PhaseRunner::RunOneAttempt).
class HAMMING_SCOPED_CAPABILITY ReleasableMutexLock {
 public:
  explicit ReleasableMutexLock(Mutex* mu) HAMMING_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~ReleasableMutexLock() HAMMING_RELEASE() {
    if (held_) mu_->Unlock();
  }

  /// \brief Releases the lock early; must not be called twice.
  void Release() HAMMING_RELEASE() {
    held_ = false;
    mu_->Unlock();
  }

  ReleasableMutexLock(const ReleasableMutexLock&) = delete;
  ReleasableMutexLock& operator=(const ReleasableMutexLock&) = delete;

 private:
  Mutex* mu_;
  bool held_ = true;
};

/// \brief Condition variable bound to hamming::Mutex.
///
/// Waits are expressed against the Mutex itself (REQUIRES(mu)), so the
/// analysis knows guarded members touched across a Wait stay protected.
/// Internally adopts the Mutex's std::mutex for the wait, keeping
/// std::condition_variable's native performance.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// \brief Blocks until notified; `mu` is released during the wait and
  /// re-held on return. Spurious wakeups possible — wait in a loop.
  void Wait(Mutex* mu) HAMMING_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu->mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // the caller's scope still owns the lock
  }

  /// \brief Timed wait; returns true if it timed out, false if notified
  /// (or woken spuriously) before the duration elapsed.
  template <typename Rep, typename Period>
  bool WaitFor(Mutex* mu, const std::chrono::duration<Rep, Period>& d)
      HAMMING_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu->mu_, std::adopt_lock);
    const bool timed_out = cv_.wait_for(lk, d) == std::cv_status::timeout;
    lk.release();
    return timed_out;
  }

  /// \brief Deadline wait; returns true if the deadline passed.
  template <typename Clock, typename Duration>
  bool WaitUntil(Mutex* mu,
                 const std::chrono::time_point<Clock, Duration>& deadline)
      HAMMING_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu->mu_, std::adopt_lock);
    const bool timed_out =
        cv_.wait_until(lk, deadline) == std::cv_status::timeout;
    lk.release();
    return timed_out;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// \brief The repo's thread type. An alias, not a wrapper — it exists so
/// thread creation outside src/common/ goes through one greppable name
/// (the [raw-sync] check forbids raw std::thread elsewhere) and can grow
/// annotations or naming hooks later without touching call sites.
using Thread = std::thread;

/// \brief Blocks the calling thread for the given duration. Lives here so
/// callers outside src/common/ need no <thread> include of their own.
template <typename Rep, typename Period>
inline void SleepFor(const std::chrono::duration<Rep, Period>& d) {
  std::this_thread::sleep_for(d);
}

/// \brief std::thread::hardware_concurrency with a sane floor for
/// environments that report 0.
inline std::size_t HardwareConcurrency(std::size_t fallback = 4) {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? fallback : static_cast<std::size_t>(hw);
}

}  // namespace hamming

#ifndef HATEN2_UTIL_TIMER_H_
#define HATEN2_UTIL_TIMER_H_

#include <chrono>

namespace haten2 {

/// \brief Monotonic wall-clock timer.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Seconds since the last lap (or construction), then restarts: for
  /// contiguous phase segments that sum to the whole.
  double Lap() {
    const double s = ElapsedSeconds();
    Restart();
    return s;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// \brief Accumulates elapsed time into a double on destruction. Useful for
/// attributing time to phases inside a larger computation.
class ScopedTimer {
 public:
  explicit ScopedTimer(double* sink) : sink_(sink) {}
  ~ScopedTimer() {
    if (sink_ != nullptr) *sink_ += timer_.ElapsedSeconds();
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double* sink_;
  WallTimer timer_;
};

}  // namespace haten2

#endif  // HATEN2_UTIL_TIMER_H_

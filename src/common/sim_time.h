#ifndef HCM_COMMON_SIM_TIME_H_
#define HCM_COMMON_SIM_TIME_H_

#include <cstdint>
#include <string>

namespace hcm {

// Virtual time, in integral milliseconds since simulation start.
//
// The paper writes all interface/strategy time bounds (the ->delta
// subscripts) in seconds of wall-clock time. The toolkit runs on a
// discrete-event executor with a virtual clock, which makes every timing
// promise exactly checkable. One paper "second" is Duration::Seconds(1)
// = 1000 ticks.
class Duration {
 public:
  constexpr Duration() : ms_(0) {}
  constexpr static Duration Millis(int64_t ms) { return Duration(ms); }
  constexpr static Duration Seconds(int64_t s) { return Duration(s * 1000); }
  constexpr static Duration Minutes(int64_t m) { return Duration(m * 60000); }
  constexpr static Duration Hours(int64_t h) { return Duration(h * 3600000); }
  constexpr static Duration Zero() { return Duration(0); }

  constexpr int64_t millis() const { return ms_; }
  constexpr double seconds() const { return static_cast<double>(ms_) / 1000.0; }

  constexpr bool operator==(const Duration& o) const { return ms_ == o.ms_; }
  constexpr bool operator!=(const Duration& o) const { return ms_ != o.ms_; }
  constexpr bool operator<(const Duration& o) const { return ms_ < o.ms_; }
  constexpr bool operator<=(const Duration& o) const { return ms_ <= o.ms_; }
  constexpr bool operator>(const Duration& o) const { return ms_ > o.ms_; }
  constexpr bool operator>=(const Duration& o) const { return ms_ >= o.ms_; }

  constexpr Duration operator+(const Duration& o) const {
    return Duration(ms_ + o.ms_);
  }
  constexpr Duration operator-(const Duration& o) const {
    return Duration(ms_ - o.ms_);
  }
  constexpr Duration operator*(int64_t k) const { return Duration(ms_ * k); }
  constexpr Duration operator/(int64_t k) const { return Duration(ms_ / k); }

  // "1500ms", "5s", "2m30s", "24h" style rendering (largest exact unit).
  std::string ToString() const;

 private:
  constexpr explicit Duration(int64_t ms) : ms_(ms) {}
  int64_t ms_;
};

// An instant on the virtual clock.
class TimePoint {
 public:
  constexpr TimePoint() : ms_(0) {}
  constexpr static TimePoint FromMillis(int64_t ms) { return TimePoint(ms); }
  constexpr static TimePoint Origin() { return TimePoint(0); }

  constexpr int64_t millis() const { return ms_; }
  constexpr double seconds() const { return static_cast<double>(ms_) / 1000.0; }

  constexpr bool operator==(const TimePoint& o) const { return ms_ == o.ms_; }
  constexpr bool operator!=(const TimePoint& o) const { return ms_ != o.ms_; }
  constexpr bool operator<(const TimePoint& o) const { return ms_ < o.ms_; }
  constexpr bool operator<=(const TimePoint& o) const { return ms_ <= o.ms_; }
  constexpr bool operator>(const TimePoint& o) const { return ms_ > o.ms_; }
  constexpr bool operator>=(const TimePoint& o) const { return ms_ >= o.ms_; }

  constexpr TimePoint operator+(const Duration& d) const {
    return TimePoint(ms_ + d.millis());
  }
  constexpr TimePoint operator-(const Duration& d) const {
    return TimePoint(ms_ - d.millis());
  }
  constexpr Duration operator-(const TimePoint& o) const {
    return Duration::Millis(ms_ - o.ms_);
  }

  // "t=12.345s".
  std::string ToString() const;

 private:
  constexpr explicit TimePoint(int64_t ms) : ms_(ms) {}
  int64_t ms_;
};

}  // namespace hcm

#endif  // HCM_COMMON_SIM_TIME_H_

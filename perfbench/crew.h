// A fixed set of benchmark threads, started and warmed once, then released
// together for each measured window. Threads exist before the clock runs,
// so no window pays thread start-up or first-touch allocation.

#ifndef PERFBENCH_CREW_H_
#define PERFBENCH_CREW_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

struct Phase {
  bool warm = false;     // warm-up pass: bounded work, not measured
  bool traced = false;
  const std::atomic<bool>* stop = nullptr;  // set by the caller to end a window
};

class Crew {
 public:
  using Body = std::function<void(int tid, const Phase& phase)>;

  Crew(int threads, Body body);
  ~Crew();  // lets the threads exit and joins them

  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  // Runs body(tid, phase) once on every thread and waits for all of them.
  // For a measured window, set phase.stop and pass `seconds`: the caller
  // sleeps that long, then raises the stop flag.
  void Run(const Phase& phase);
  void RunFor(Phase phase, double seconds);

  int size() const { return static_cast<int>(threads_.size()); }

 private:
  void Start(const Phase& phase);
  void Wait();
  void Loop(int tid);

  Body body_;
  std::mutex mutex_;
  std::condition_variable cv_;
  uint64_t generation_ = 0;
  int running_ = 0;
  bool exit_ = false;
  Phase phase_;
  std::vector<std::thread> threads_;  // last: started after the state above
};

}  // namespace perfbench

#endif  // PERFBENCH_CREW_H_

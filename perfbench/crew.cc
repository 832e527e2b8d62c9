#include "crew.h"

#include <chrono>

namespace perfbench {

Crew::Crew(int threads, Body body) : body_(std::move(body)) {
  for (int tid = 0; tid < threads; ++tid) {
    threads_.emplace_back([this, tid] { Loop(tid); });
  }
}

Crew::~Crew() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    exit_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void Crew::Loop(int tid) {
  uint64_t seen = 0;
  for (;;) {
    Phase phase;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return exit_ || generation_ != seen; });
      if (exit_) return;
      seen = generation_;
      phase = phase_;
    }
    body_(tid, phase);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --running_;
    }
    cv_.notify_all();
  }
}

void Crew::Start(const Phase& phase) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    phase_ = phase;
    running_ = size();
    ++generation_;
  }
  cv_.notify_all();
}

void Crew::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return running_ == 0; });
}

void Crew::Run(const Phase& phase) {
  Start(phase);
  Wait();
}

void Crew::RunFor(Phase phase, double seconds) {
  std::atomic<bool> stop{false};
  phase.stop = &stop;
  Start(phase);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  Wait();
}

}  // namespace perfbench

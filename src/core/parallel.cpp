#include "core/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace slm::core {

unsigned resolve_threads(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

struct ThreadPool::Impl {
  std::vector<std::thread> workers;
  std::mutex m;
  std::condition_variable cv_work;
  std::condition_variable cv_done;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::size_t workers_done = 0;
  std::uint64_t generation = 0;
  bool stop = false;
  std::exception_ptr error;

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      std::unique_lock<std::mutex> lk(m);
      cv_work.wait(lk, [&] { return stop || generation != seen; });
      if (generation == seen) return;
      seen = generation;
      lk.unlock();
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        try {
          (*fn)(i);
        } catch (...) {
          std::lock_guard<std::mutex> g(m);
          if (!error) error = std::current_exception();
        }
      }
      lk.lock();
      if (++workers_done == workers.size()) cv_done.notify_all();
    }
  }
};

ThreadPool::ThreadPool(unsigned threads) : impl_(new Impl) {
  SLM_REQUIRE(threads > 0, "ThreadPool: zero threads");
  impl_->workers.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> g(impl_->m);
    impl_->stop = true;
  }
  impl_->cv_work.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

unsigned ThreadPool::size() const {
  return static_cast<unsigned>(impl_->workers.size());
}

void ThreadPool::run_indexed(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::unique_lock<std::mutex> lk(impl_->m);
  impl_->fn = &fn;
  impl_->n = n;
  impl_->next.store(0, std::memory_order_relaxed);
  impl_->workers_done = 0;
  impl_->error = nullptr;
  ++impl_->generation;
  impl_->cv_work.notify_all();
  impl_->cv_done.wait(
      lk, [&] { return impl_->workers_done == impl_->workers.size(); });
  impl_->fn = nullptr;
  if (impl_->error) std::rethrow_exception(impl_->error);
}

}  // namespace slm::core

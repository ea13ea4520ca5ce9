#include "util/thread_pool.hpp"

#include <algorithm>

namespace nora::util {

ThreadPool::ThreadPool(int threads) { resize(threads); }

ThreadPool::~ThreadPool() { resize(1); }

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(1);
  return pool;
}

int ThreadPool::clamp_width(int threads) {
  // Deterministic clamp instead of throwing: pools size themselves from
  // config knobs (TileConfig::n_threads, bench flags) that may ask for 0
  // or for more than the host offers. 0 / negative degrade to the
  // sequential width; requests beyond hardware_concurrency() clamp to it
  // so a pool never oversubscribes the host. When the host
  // cannot report its width (hardware_concurrency() == 0) the requested
  // width is honored as-is — there is nothing to clamp against.
  if (threads < 1) return 1;
  const unsigned hc = std::thread::hardware_concurrency();
  if (hc > 0 && threads > static_cast<int>(hc)) return static_cast<int>(hc);
  return threads;
}

void ThreadPool::resize(int threads) {
  threads = clamp_width(threads);
  const std::size_t want_workers = static_cast<std::size_t>(threads - 1);
  if (want_workers == workers_.size()) {
    n_threads_.store(threads, std::memory_order_relaxed);
    return;
  }
  // Quiesce the current crew. Callers guarantee no parallel_for is in
  // flight, so jobs_ is empty and workers are parked on cv_work_.
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = false;
  }
  workers_.reserve(want_workers);
  for (std::size_t i = 0; i < want_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  n_threads_.store(threads, std::memory_order_relaxed);
}

void ThreadPool::ensure(int threads) {
  if (threads > this->threads()) resize(threads);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lk(m_);
      cv_work_.wait(lk, [&] { return stop_ || !jobs_.empty(); });
      if (stop_) return;
      job = jobs_.back();  // newest first: unblocks nested loops fastest
    }
    assist(*job);
    remove_job(job);
  }
}

void ThreadPool::assist(Job& job) {
  for (;;) {
    const std::int64_t begin =
        job.next.fetch_add(job.grain, std::memory_order_relaxed);
    if (begin >= job.n) return;
    const std::int64_t end = std::min(job.n, begin + job.grain);
    if (!job.failed.load(std::memory_order_relaxed)) {
      try {
        for (std::int64_t i = begin; i < end; ++i) (*job.fn)(i);
      } catch (...) {
        bool expected = false;
        if (job.failed.compare_exchange_strong(expected, true)) {
          job.error = std::current_exception();
        }
      }
    }
    if (job.done.fetch_add(end - begin, std::memory_order_acq_rel) +
            (end - begin) ==
        job.n) {
      std::lock_guard<std::mutex> lk(m_);
      cv_done_.notify_all();
    }
  }
}

void ThreadPool::remove_job(const std::shared_ptr<Job>& job) {
  std::lock_guard<std::mutex> lk(m_);
  jobs_.erase(std::remove(jobs_.begin(), jobs_.end(), job), jobs_.end());
}

void ThreadPool::parallel_for(std::int64_t n,
                              const std::function<void(std::int64_t)>& fn,
                              std::int64_t grain) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  if (n == 1 || threads() <= 1) {
    for (std::int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->n = n;
  job->grain = grain;
  {
    std::lock_guard<std::mutex> lk(m_);
    jobs_.push_back(job);
  }
  cv_work_.notify_all();
  assist(*job);  // the caller always helps drain its own job
  {
    std::unique_lock<std::mutex> lk(m_);
    cv_done_.wait(lk, [&] {
      return job->done.load(std::memory_order_acquire) >= job->n;
    });
  }
  remove_job(job);
  if (job->failed.load(std::memory_order_acquire)) {
    std::rethrow_exception(job->error);
  }
}

}  // namespace nora::util

// A small fixed-size worker pool for batch query serving, and ParallelFor,
// the one batch fan-out the engines and the client verifiers share.
//
// A batch fans a job stream out over N workers, each holding its own
// scratch (a SearchWorkspace, a VerifyWorkspace) so the per-thread arrays
// stay hot across the whole stream. The pool is deliberately minimal:
// submit void() tasks, wait for quiescence, destroy. No futures, no task
// priorities — the batch layer owns result placement.
#ifndef SPAUTH_UTIL_THREAD_POOL_H_
#define SPAUTH_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace spauth {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least one).
  explicit ThreadPool(size_t num_threads);
  /// Drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; runs on some worker. Tasks must not throw.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished running.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// A sensible worker count for `jobs` independent jobs on this host.
  static size_t DefaultThreads(size_t jobs);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;   // signals workers: task or shutdown
  std::condition_variable idle_cv_;   // signals Wait(): everything done
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;  // tasks popped but not yet finished
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// Runs `fn(job, scratch)` for every job in [0, jobs). Each worker owns one
/// `make_scratch()` result for its whole share of the stream and claims
/// jobs in order through one atomic cursor. `num_threads == 0` picks
/// ThreadPool::DefaultThreads(jobs); never more workers than jobs. With one
/// worker this is a plain loop on the calling thread and builds no pool.
template <typename MakeScratch, typename Fn>
void ParallelFor(size_t jobs, size_t num_threads,
                 const MakeScratch& make_scratch, const Fn& fn) {
  if (num_threads == 0) {
    num_threads = ThreadPool::DefaultThreads(jobs);
  }
  num_threads = std::min(num_threads, jobs);
  if (num_threads <= 1) {
    auto scratch = make_scratch();
    for (size_t i = 0; i < jobs; ++i) {
      fn(i, scratch);
    }
    return;
  }
  ThreadPool pool(num_threads);
  std::atomic<size_t> next{0};
  for (size_t w = 0; w < num_threads; ++w) {
    pool.Submit([&] {
      auto scratch = make_scratch();
      for (size_t i = next.fetch_add(1); i < jobs; i = next.fetch_add(1)) {
        fn(i, scratch);
      }
    });
  }
  pool.Wait();
}

}  // namespace spauth

#endif  // SPAUTH_UTIL_THREAD_POOL_H_

// CampaignService: the controller behind idlewaved.
//
// Transport-free heart of the daemon, modeled on the slurmctld controller /
// queue split: the server (service/server.hpp) owns sockets and framing,
// this class owns everything else — admission, the fair-share JobQueue,
// running claimed batches through sweep::run_campaign, the
// content-addressed PointCache, and per-job output streams of ready-to-send
// protocol lines. Tests drive it in-process (no fork/exec, no sockets) and
// get the exact bytes a socket client would.
//
// Threading: every public method locks the one service mutex. Batches run
// on whichever thread calls pump()/run_loop() — the daemon dedicates one
// scheduler thread to run_loop() — and that thread is the batch's first
// campaign worker: at threads = 1 it computes every point itself, with no
// thread started per batch. The physics runs UNLOCKED, so
// submit/cancel/status stay responsive during compute; a running batch is
// stopped at the next point boundary via the job's cancellation flag. The
// metrics registry (not thread-safe) is only ever touched under the
// service mutex, never handed to run_campaign's workers.
//
// Dedup has three tiers per submitted point:
//   cache hit  — a completed record's values exist; replayed instantly
//                (sweep::append_json_from_values interleaves the column
//                names with them and writes the requesting campaign's
//                point index: the line is byte-identical to a fresh run).
//   in-flight  — another job owns the same key but hasn't finished it; the
//                point parks as a "reserved" slot and is filled when the
//                owner's batch lands. If the owner cancels first, the
//                oldest waiter is promoted to owner and computes it.
//   compute    — this job becomes the key's owner; the point enters the
//                fair-share queue.
//
// Memory: a job holds its expanded points and their cache keys only while
// it is unfinished. When it finishes (every point done, or cancelled with
// no claimed point left), it keeps just what drain/results/finished/
// abandon/status read — one slot byte and one cache value pointer per
// point, its counters and its undrained output, about 9 B per point plus a
// fixed header. Re-submitting cached campaigns therefore grows the daemon
// by that much per point, and the cache is the only state that grows with
// distinct points: about 550 B of peak RSS per point (a 154-165 B packed
// key, about 210 B of record values, the map node and allocator overhead;
// the finished job's share included).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "service/cache.hpp"
#include "service/queue.hpp"
#include "sweep/spec.hpp"

namespace iw::service {

struct ServiceOptions {
  /// Campaign workers per claimed batch, the pumping thread included
  /// (run_campaign starts threads - 1 helpers).
  int threads = 1;
  /// Max points per scheduling decision (one run_campaign call), at least 1
  /// (the constructor throws std::invalid_argument on 0). Small batches
  /// interleave clients finely; large ones amortize the per-batch
  /// scheduling under the service lock and, at threads > 1, the helper
  /// threads' start and join.
  std::size_t batch_points = 8;
  QueueLimits limits;
  /// Optional unified metrics registry; written only under the service
  /// mutex (the registry is not thread-safe). Non-owning.
  obs::MetricsRegistry* metrics = nullptr;
  /// Called (unlocked) whenever some job gained ready output lines — the
  /// daemon writes a wakeup byte so its poll loop drains. Plain function
  /// pointer: src/service is a lint hot tree (no std::function).
  void (*on_output)(void* ctx) = nullptr;
  void* on_output_ctx = nullptr;
  /// Test hook: called after each completed point of a running batch, from
  /// run_campaign's progress callback, OUTSIDE the service lock — a test
  /// can cancel() the job at an exact point boundary from inside it.
  void (*on_batch_point)(void* ctx, std::uint64_t job,
                         std::size_t done_in_batch) = nullptr;
  void* on_batch_ctx = nullptr;
};

struct SubmitResult {
  bool accepted = false;
  std::uint64_t job = 0;
  std::size_t points = 0;  ///< full expansion size
  std::size_t cached = 0;  ///< served from cache at submission
  std::string error_code;  ///< on rejection: admission-* | bad-spec
  std::string message;
};

class CampaignService {
 public:
  explicit CampaignService(ServiceOptions options = {});
  ~CampaignService();

  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  /// Admits (or rejects — structured error, never a hang) one campaign.
  /// On acceptance the job's output stream starts filling immediately:
  /// cache-hit prefixes are emitted before submit() even returns.
  SubmitResult submit(const std::string& client, int priority,
                      const sweep::SweepSpec& spec);

  /// Cancels a job: unclaimed and reserved work is reclaimed instantly, a
  /// running batch stops at its next point boundary, and every record
  /// completed before the stop is still delivered ahead of the terminal
  /// "cancelled" line. False if the job is unknown or already finished.
  bool cancel(std::uint64_t job);

  /// Moves the job's ready output lines (record lines in ascending point
  /// order, then one terminal control line) into `lines`. False if the job
  /// is unknown.
  bool drain(std::uint64_t job, std::vector<std::string>& lines);

  /// True once the job's terminal line has been emitted.
  [[nodiscard]] bool finished(std::uint64_t job) const;

  /// Appends the record line of every point completed so far, each
  /// followed by '\n' (the "results" verb's replay, framed for one send),
  /// in ascending point order, and returns how many it appended. nullopt
  /// if the job is unknown.
  std::optional<std::size_t> results_so_far(std::uint64_t job,
                                            std::string& framed) const;

  /// One status control line (queue depth, clients, cache, per-client
  /// points/sec).
  [[nodiscard]] std::string status_json() const;

  /// The connection that submitted `job` went away: cancel the job if it
  /// is unfinished and discard its output stream. Queue slots free
  /// immediately; completed physics stays in the cache. The daemon calls
  /// this for each job a disconnecting connection owned (per job, not per
  /// client: the fair-share client name may be shared by other live
  /// connections).
  void abandon(std::uint64_t job);

  /// Runs one scheduling decision and its batch to completion. False when
  /// nothing is runnable. Tests call this directly for determinism.
  bool pump();

  /// pump() until stop(), sleeping while idle. The daemon runs this on a
  /// dedicated scheduler thread.
  void run_loop();
  void stop();

  [[nodiscard]] std::size_t cache_size() const;

 private:
  struct Job {
    std::uint64_t id = 0;
    std::string client;
    // The expansion: read only while the job is unfinished, released by
    // check_finalize when it finishes.
    std::vector<sweep::SweepPoint> points;  ///< points[pi].index == pi
    std::vector<std::string> keys;  ///< canonical cache key per point
    /// Point indices needing compute, in point order; the JobQueue's slot
    /// offsets index this array (promotions append, claims walk forward).
    std::vector<std::size_t> compute_order;
    // Kept for the job's lifetime.
    /// Per-point slot state. done/pending/claimed/reserved as in the
    /// class comment; reclaimed = cancelled before a record existed.
    enum class Slot : std::uint8_t {
      done,
      pending,
      claimed,
      reserved,
      reclaimed
    };
    std::vector<Slot> slots;  ///< one per point: its size is the point count
    /// Cache-owned record values per point, set where the slot is done; a
    /// job holds no copy of the bytes (see record_line).
    std::vector<const std::string*> values;
    std::size_t next_emit = 0;  ///< first point index not yet emitted
    std::size_t emitted = 0;
    std::size_t done_count = 0;
    std::size_t cache_hits = 0;  ///< submit-time hits + waiter fills
    std::size_t computed = 0;
    std::vector<std::string> out;  ///< ready-to-send protocol lines
    std::atomic<bool> cancel_flag{false};
    bool cancelled = false;
    bool finished = false;
    bool abandoned = false;  ///< client disconnected; output is discarded
    /// Non-empty when a batch threw: the terminal line becomes an error
    /// response instead of "cancelled".
    std::string terminal_error;
  };
  struct ClientStats {
    std::uint64_t computed = 0;
    double batch_seconds = 0.0;
  };
  /// Who will compute a key that is not yet cached.
  struct Owner {
    std::uint64_t job = 0;
    std::size_t point = 0;
  };

  Job* find_job(std::uint64_t id);
  const Job* find_job(std::uint64_t id) const;
  /// Marks the job cancelled and reclaims its unclaimed pending and
  /// reserved slots (ownerships released / waiter registrations removed).
  void reclaim_unfinished(Job& j);
  /// Marks point `pi` done with `values`, cache-owned record values.
  void fill_record(Job& j, std::size_t pi, const std::string& values);
  /// Point `pi`'s record line with the job's own point index, `pi`.
  static std::string record_line(const Job& j, std::size_t pi);
  void advance_emission(Job& j);
  void release_ownership(const std::string& key);
  /// Emits the terminal line once the job is done or drained of claimed
  /// work, then releases its expansion (points, keys, compute_order).
  void check_finalize(Job& j);
  void publish_gauges();
  [[nodiscard]] bool runnable_locked() const;

  ServiceOptions options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  JobQueue queue_;
  PointCache cache_;  ///< declared before jobs_: jobs point into it
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::map<std::string, Owner> owners_;  ///< key -> computing (job, point)
  std::map<std::string, std::vector<Owner>> waiters_;  ///< key -> reserved
  std::map<std::string, ClientStats> stats_;
  std::uint64_t next_job_ = 1;
  std::size_t jobs_open_ = 0;  ///< accepted and not yet finished
  std::uint64_t total_computed_ = 0;
  double total_batch_seconds_ = 0.0;
  bool stop_ = false;
  bool batch_in_flight_ = false;  ///< one batch at a time (single run_loop)
};

}  // namespace iw::service

/**
 * @file
 * tacsim-served: the simulation-as-a-service daemon core.
 *
 * A Server binds one loopback (by default) TCP port and speaks the
 * minimal HTTP/1.1 of serve/http.hh:
 *
 *   POST /jobs            submit a JSON job spec (serve/job_spec.hh).
 *                         Responds with the job id, the canonical
 *                         point_key, and the current status — "done"
 *                         immediately when the result cache already
 *                         holds the point, and an existing job's id
 *                         when an identical submission is already
 *                         queued or running (in-flight dedup).
 *   GET  /jobs/<id>       poll status; a finished job carries the run
 *                         record and the canonical stats dump.
 *   GET  /results/<key>   the canonical stats dump for a point key,
 *                         byte-identical to what the computing run
 *                         produced (text/plain; 404 when unknown).
 *   GET  /healthz         liveness probe ("ok").
 *   GET  /metrics         counters in obs::Registry::dumpText format.
 *
 * Simulation happens on a bounded worker pool (each job is an
 * independent deterministic System, so concurrency cannot change
 * results). Every completed job is written to the persistent
 * ResultCache, so a restarted daemon — or a SweepRunner pointed at the
 * same cache directory — serves repeat points without simulating.
 *
 * Shutdown is graceful: requestStop() (async-signal-safe: a flag write
 * plus closing the listen socket) stops accepting work; wait() returns
 * once in-flight jobs finish and queued ones are marked failed
 * ("server shutting down"). The cache index is already durable at that
 * point — it rewrites atomically on every mutation.
 */

#ifndef TACSIM_SERVE_SERVER_HH
#define TACSIM_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hh"
#include "serve/http.hh"
#include "serve/job_spec.hh"
#include "serve/result_cache.hh"

namespace tacsim {
namespace serve {

struct ServerConfig
{
    /** Bind address. Loopback by default: the daemon runs untrusted
     *  JSON through a hand-rolled parser; exposing it wider is an
     *  explicit operator decision. */
    std::string host = "127.0.0.1";
    /** TCP port; 0 binds an ephemeral port (read it back via port()). */
    std::uint16_t port = 0;
    /** Simulation worker threads; 0 = min(hardware_concurrency, 4). */
    unsigned workers = 0;
    /** Result-cache directory; empty runs without persistence. */
    std::string cacheDir;
    /** Cache size cap in bytes (0 = unbounded). */
    std::uint64_t maxCacheBytes = 0;
};

class Server
{
  public:
    explicit Server(ServerConfig cfg);
    ~Server();

    /** Bind, listen, and spawn the accept loop and worker pool.
     *  Throws std::runtime_error when the socket cannot be bound. */
    void start();

    /** Port actually bound (resolves an ephemeral request). */
    std::uint16_t port() const { return boundPort_; }

    /**
     * Begin graceful shutdown: stop accepting connections and wake the
     * workers. Safe to call from a signal handler (writes an atomic
     * flag and closes the listen fd).
     */
    void requestStop();

    /** Block until the accept loop and every worker have exited. */
    void wait();

    /** requestStop() + wait(). */
    void stop();

    ResultCache *cache() { return cache_.get(); }

    /** Counters in obs::Registry::dumpText format (the /metrics body). */
    std::string metricsText();

  private:
    enum class JobState : std::uint8_t
    {
        Queued,
        Running,
        Done,
        Failed,
    };

    struct JobRecord
    {
        std::uint64_t id = 0;
        std::string pointKey;
        JobSpec spec;
        JobState state = JobState::Queued;
        bool cached = false;
        std::string error;
        std::string statsDump;
        std::string runRecord;
        RunResult result;
    };

    void acceptLoop();
    void workerLoop();
    void handleConnection(int fd);
    std::string handleRequest(const HttpRequest &req);
    std::string handleSubmit(const HttpRequest &req);
    std::string handleJobStatus(std::uint64_t id);
    std::string handleResult(const std::string &key);
    std::string jobStatusJson(const JobRecord &job) const;

    ServerConfig cfg_;
    std::unique_ptr<ResultCache> cache_;

    /** Read by the accept thread, taken by requestStop (any thread). */
    std::atomic<int> listenFd_{-1};
    std::uint16_t boundPort_ = 0;
    std::atomic<bool> stopping_{false};
    std::thread acceptThread_;
    std::vector<std::thread> workers_;

    mutable std::mutex jobMutex_;
    std::condition_variable jobCv_;
    std::map<std::uint64_t, JobRecord> jobs_;
    std::map<std::string, std::uint64_t> jobByPointKey_;
    std::deque<std::uint64_t> queue_;
    std::uint64_t nextJobId_ = 1;

    // /metrics counters (guarded by jobMutex_; registry reads them
    // under the same lock in metricsText()).
    obs::Registry registry_;
    std::uint64_t mSubmitted_ = 0;
    std::uint64_t mDeduped_ = 0;
    std::uint64_t mCacheHits_ = 0;
    std::uint64_t mCompleted_ = 0;
    std::uint64_t mFailed_ = 0;
    std::uint64_t mRejected_ = 0;
    std::uint64_t mConnections_ = 0;
};

} // namespace serve
} // namespace tacsim

#endif // TACSIM_SERVE_SERVER_HH

#include "serve/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "serve/point_key.hh"
#include "sim/runner.hh"
#include "sim/stats_dump.hh"

namespace tacsim {
namespace serve {

namespace {

/** Per-connection socket timeouts: a stalled peer must not pin the
 *  accept loop forever. */
void
setSocketTimeouts(int fd)
{
    struct timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void
sendAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
        if (n <= 0)
            return; // peer gone or timed out; nothing to salvage
        off += static_cast<std::size_t>(n);
    }
}

const char *
jobStateName(int state)
{
    switch (state) {
    case 0:
        return "queued";
    case 1:
        return "running";
    case 2:
        return "done";
    default:
        return "failed";
    }
}

} // namespace

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg))
{
    if (!cfg_.cacheDir.empty())
        cache_ = std::make_unique<ResultCache>(cfg_.cacheDir,
                                               cfg_.maxCacheBytes);
    registry_.addCounter("serve.jobs_submitted", &mSubmitted_);
    registry_.addCounter("serve.jobs_deduped", &mDeduped_);
    registry_.addCounter("serve.cache_hits", &mCacheHits_);
    registry_.addCounter("serve.jobs_completed", &mCompleted_);
    registry_.addCounter("serve.jobs_failed", &mFailed_);
    registry_.addCounter("serve.requests_rejected", &mRejected_);
    registry_.addCounter("serve.connections", &mConnections_);
}

Server::~Server()
{
    stop();
}

void
Server::start()
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error("serve: socket() failed: " +
                                 std::string(std::strerror(errno)));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    struct sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(cfg_.port);
    if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        throw std::runtime_error("serve: bad bind address " + cfg_.host);
    }
    if (::bind(fd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
        const std::string err = std::strerror(errno);
        ::close(fd);
        throw std::runtime_error("serve: cannot listen on " + cfg_.host +
                                 ":" + std::to_string(cfg_.port) + ": " +
                                 err);
    }

    struct sockaddr_in bound{};
    socklen_t blen = sizeof(bound);
    ::getsockname(fd, reinterpret_cast<struct sockaddr *>(&bound),
                  &blen);
    listenFd_.store(fd);
    boundPort_ = ntohs(bound.sin_port);

    unsigned workers = cfg_.workers;
    if (workers == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        workers = std::min(hw ? hw : 1u, 4u);
    }
    for (unsigned w = 0; w < workers; ++w)
        workers_.emplace_back([this] { workerLoop(); });
    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
Server::requestStop()
{
    stopping_.store(true, std::memory_order_relaxed);
    // Closing the listen socket pops the accept loop out of accept().
    // exchange: a second stop finds -1 and cannot close the fd twice.
    const int fd = listenFd_.exchange(-1);
    if (fd >= 0) {
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
    }
    jobCv_.notify_all();
}

void
Server::wait()
{
    if (acceptThread_.joinable())
        acceptThread_.join();
    for (std::thread &t : workers_)
        if (t.joinable())
            t.join();
    workers_.clear();

    // Queued-but-never-run jobs fail loudly so pollers see a terminal
    // state instead of hanging on "queued" forever.
    std::lock_guard<std::mutex> lk(jobMutex_);
    while (!queue_.empty()) {
        auto it = jobs_.find(queue_.front());
        queue_.pop_front();
        if (it != jobs_.end() && it->second.state == JobState::Queued) {
            it->second.state = JobState::Failed;
            it->second.error = "server shutting down";
            ++mFailed_;
        }
    }
}

void
Server::stop()
{
    requestStop();
    wait();
}

void
Server::acceptLoop()
{
    for (;;) {
        const int fd = ::accept(listenFd_.load(), nullptr, nullptr);
        if (fd < 0) {
            if (stopping_.load(std::memory_order_relaxed))
                return;
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            return; // listen socket gone
        }
        setSocketTimeouts(fd);
        handleConnection(fd);
        ::close(fd);
    }
}

void
Server::handleConnection(int fd)
{
    {
        std::lock_guard<std::mutex> lk(jobMutex_);
        ++mConnections_;
    }
    HttpRequestParser parser;
    // tacsim-lint: allow(magic-page-constant) socket read buffer, not page math
    char chunk[4096];
    while (parser.state() == HttpRequestParser::State::NeedMore) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            break; // closed or timed out mid-request
        parser.feed(chunk, static_cast<std::size_t>(n));
    }

    if (parser.state() != HttpRequestParser::State::Done) {
        std::lock_guard<std::mutex> lk(jobMutex_);
        ++mRejected_;
        sendAll(fd, httpError(400, "Bad Request",
                              parser.error().empty() ? "incomplete request"
                                                     : parser.error()));
        return;
    }
    sendAll(fd, handleRequest(parser.request()));
}

std::string
Server::handleRequest(const HttpRequest &req)
{
    const std::string &t = req.target;
    if (req.method == "GET") {
        if (t == "/healthz")
            return httpOkText("ok\n");
        if (t == "/metrics")
            return httpOkText(metricsText());
        if (t.rfind("/jobs/", 0) == 0) {
            const std::string idText = t.substr(6);
            char *end = nullptr;
            const unsigned long long id =
                std::strtoull(idText.c_str(), &end, 10);
            if (end == idText.c_str() || *end != '\0')
                return httpError(404, "Not Found", "bad job id");
            return handleJobStatus(id);
        }
        if (t.rfind("/results/", 0) == 0)
            return handleResult(t.substr(9));
        return httpError(404, "Not Found", "unknown endpoint");
    }
    if (req.method == "POST" && t == "/jobs")
        return handleSubmit(req);
    return httpError(405, "Method Not Allowed",
                     "unsupported method for " + t);
}

std::string
Server::handleSubmit(const HttpRequest &req)
{
    JobSpec spec;
    std::string key;
    try {
        spec = parseJobSpec(parseJson(req.body));
        key = jobSpecPointKey(spec);
    } catch (const std::exception &e) {
        std::lock_guard<std::mutex> lk(jobMutex_);
        ++mRejected_;
        return httpError(400, "Bad Request", e.what());
    }

    std::unique_lock<std::mutex> lk(jobMutex_);
    ++mSubmitted_;

    // In-flight / already-computed dedup: one point key, one job.
    auto known = jobByPointKey_.find(key);
    if (known != jobByPointKey_.end()) {
        ++mDeduped_;
        return httpOkJson(jobStatusJson(jobs_.at(known->second)));
    }

    JobRecord job;
    job.id = nextJobId_++;
    job.pointKey = key;
    job.spec = std::move(spec);

    // A persistent-cache hit completes the job at submission time.
    if (cache_) {
        CacheEntry entry;
        lk.unlock(); // file I/O outside the job lock
        const bool hit = cache_->lookup(key, entry);
        lk.lock();
        if (hit) {
            job.state = JobState::Done;
            job.cached = true;
            job.result = entry.result;
            job.statsDump = entry.statsDump;
            job.runRecord = entry.runRecord;
            ++mCacheHits_;
            ++mCompleted_;
        }
    }

    const bool enqueue = job.state == JobState::Queued;
    const std::uint64_t id = job.id;
    jobByPointKey_[key] = id;
    jobs_[id] = std::move(job);
    if (enqueue) {
        if (stopping_.load(std::memory_order_relaxed)) {
            jobs_[id].state = JobState::Failed;
            jobs_[id].error = "server shutting down";
            ++mFailed_;
        } else {
            queue_.push_back(id);
            jobCv_.notify_one();
        }
    }
    return httpOkJson(jobStatusJson(jobs_.at(id)));
}

std::string
Server::handleJobStatus(std::uint64_t id)
{
    std::lock_guard<std::mutex> lk(jobMutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return httpError(404, "Not Found",
                         "unknown job " + std::to_string(id));
    return httpOkJson(jobStatusJson(it->second));
}

std::string
Server::handleResult(const std::string &key)
{
    if (!isPointKey(key))
        return httpError(404, "Not Found", "malformed point key");
    {
        std::lock_guard<std::mutex> lk(jobMutex_);
        auto it = jobByPointKey_.find(key);
        if (it != jobByPointKey_.end()) {
            const JobRecord &job = jobs_.at(it->second);
            if (job.state == JobState::Done)
                return httpOkText(job.statsDump);
        }
    }
    if (cache_) {
        CacheEntry entry;
        if (cache_->lookup(key, entry))
            return httpOkText(entry.statsDump);
    }
    return httpError(404, "Not Found", "no result for " + key);
}

std::string
Server::jobStatusJson(const JobRecord &job) const
{
    JsonObject o;
    o["id"] = JsonValue(job.id);
    o["point_key"] = JsonValue(job.pointKey);
    o["status"] =
        JsonValue(jobStateName(static_cast<int>(job.state)));
    o["cached"] = JsonValue(job.cached);
    if (job.state == JobState::Failed)
        o["error"] = JsonValue(job.error);
    if (job.state == JobState::Done) {
        o["benchmark"] = JsonValue(job.result.benchmark);
        o["cycles"] = JsonValue(job.result.cycles);
        o["instructions"] = JsonValue(job.result.instructions);
        o["ipc"] = JsonValue(job.result.ipc);
        o["stats_dump"] = JsonValue(job.statsDump);
        o["run"] = parseJson(job.runRecord.empty() ? "null"
                                                   : job.runRecord);
    }
    return JsonValue(std::move(o)).dump();
}

void
Server::workerLoop()
{
    for (;;) {
        std::uint64_t id = 0;
        JobSpec spec;
        std::string key;
        {
            std::unique_lock<std::mutex> lk(jobMutex_);
            jobCv_.wait(lk, [this] {
                return !queue_.empty() ||
                    stopping_.load(std::memory_order_relaxed);
            });
            if (queue_.empty())
                return; // stopping and drained
            id = queue_.front();
            queue_.pop_front();
            JobRecord &job = jobs_.at(id);
            job.state = JobState::Running;
            spec = job.spec;
            key = job.pointKey;
        }

        RunResult result;
        std::string error;
        try {
            result = runSpecMix(spec.cfg, spec.specs, spec.instructions,
                                spec.warmup);
        } catch (const std::exception &e) {
            error = e.what();
        } catch (...) {
            error = "unknown exception";
        }

        std::string dump;
        if (error.empty()) {
            dump = dumpRunResult(result);
            if (cache_) {
                CacheEntry entry;
                entry.pointKey = key;
                entry.runRecord = makeRunRecord(key, result);
                entry.statsDump = dump;
                entry.result = result;
                cache_->store(entry);
            }
        }

        std::lock_guard<std::mutex> lk(jobMutex_);
        JobRecord &job = jobs_.at(id);
        if (error.empty()) {
            job.state = JobState::Done;
            job.result = std::move(result);
            job.statsDump = std::move(dump);
            job.runRecord = makeRunRecord(key, job.result);
            ++mCompleted_;
        } else {
            job.state = JobState::Failed;
            job.error = std::move(error);
            ++mFailed_;
        }
    }
}

std::string
Server::metricsText()
{
    std::lock_guard<std::mutex> lk(jobMutex_);
    std::string out = registry_.dumpText();
    // Gauges the registry cannot own (they live behind this mutex).
    out += "serve.jobs_queued " + std::to_string(queue_.size()) + "\n";
    out += "serve.jobs_known " + std::to_string(jobs_.size()) + "\n";
    if (cache_) {
        out += "serve.cache_entries " +
            std::to_string(cache_->entries()) + "\n";
        out += "serve.cache_bytes " +
            std::to_string(cache_->totalBytes()) + "\n";
        out += "serve.cache_store_hits " +
            std::to_string(cache_->hits()) + "\n";
        out += "serve.cache_store_misses " +
            std::to_string(cache_->misses()) + "\n";
        out += "serve.cache_corrupt_misses " +
            std::to_string(cache_->corruptMisses()) + "\n";
        out += "serve.cache_evictions " +
            std::to_string(cache_->evictions()) + "\n";
    }
    return out;
}

} // namespace serve
} // namespace tacsim

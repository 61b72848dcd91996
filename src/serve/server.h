// The qrn-serve daemon shell: sockets, threads, the bounded request queue
// and the graceful-drain lifecycle around a Service.
//
// Thread structure (the only sanctioned std::thread use outside src/exec):
//
//   accept thread      polls the listener, spawns one reader per client
//   reader threads     read frames, decode, try_push onto the bounded
//                      queue; a full queue answers Busy immediately -
//                      backpressure is explicit, never a latency cliff
//   dispatcher thread  the sole consumer: executes requests against the
//                      Service one at a time, which serializes every
//                      store append into deterministic arrival order
//   sealer thread      owned by the Service, started at its first roll:
//                      seals and re-reads each full shard while the
//                      dispatcher appends to the next one
//
// Readers block on their request's reply rendezvous and write the
// response themselves, so per-connection request/reply ordering holds
// without any write-side locking.
//
// Drain (SIGTERM): stop accepting, let readers finish their in-flight
// request, close every connection, flush the queue through the
// dispatcher, then seal the partial shard and write the store index.
// After drain() returns the store is complete and a restarted daemon
// resumes exactly there.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.h"
#include "serve/queue.h"
#include "serve/service.h"
#include "serve/socket.h"

namespace qrn::serve {

struct ServerConfig {
    /// Unix-domain socket path; when empty, a loopback TCP socket on
    /// `port` is used instead.
    std::string socket_path;
    std::uint16_t port = 0;  ///< TCP port; 0 picks an ephemeral one.
    std::size_t queue_capacity = 64;
    std::uint32_t retry_after_ms = 50;  ///< Hint carried by Busy replies.
    int poll_ms = 100;  ///< Accept/read poll granularity (drain latency).
};

class Server {
public:
    Server(std::unique_ptr<Service> service, ServerConfig config);
    ~Server();  ///< Drains first if still running.

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Binds, listens and starts the thread structure. Throws SocketError
    /// when the endpoint cannot be bound.
    void start();

    /// Graceful drain; blocks until the queue is flushed and the partial
    /// shard is sealed. Idempotent.
    void drain();

    /// The TCP port actually bound (after start(); resolves port 0).
    [[nodiscard]] std::uint16_t port() const;

    [[nodiscard]] bool draining() const noexcept {
        return draining_.load(std::memory_order_relaxed);
    }

    /// The service, for post-drain inspection in tests.
    [[nodiscard]] const Service& service() const noexcept { return *service_; }

private:
    struct Pending;
    struct Job;

    void accept_loop();
    void reader_loop(Socket socket);
    void dispatch_loop();

    std::unique_ptr<Service> service_;
    ServerConfig config_;
    Socket listener_;
    std::unique_ptr<BoundedQueue<Job>> queue_;
    std::thread accept_thread_;
    std::thread dispatch_thread_;
    std::mutex readers_mutex_;
    std::vector<std::thread> readers_;  // qrn:guarded_by(readers_mutex_)
    std::atomic<bool> draining_{false};
    bool started_ = false;
    bool drained_ = false;
};

}  // namespace qrn::serve

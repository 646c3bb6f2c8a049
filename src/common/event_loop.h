/**
 * @file
 * prism::net::EventLoop — the one event loop under both listeners: the
 * RESP front-end (net::RespServer, docs/SERVER.md) and the HTTP ops
 * plane (obs::ObsServer) each run one instance on its own thread (two,
 * not one shared thread, because /pprof/profile blocks its loop for the
 * whole profile window).
 *
 * The loop owns everything that is not protocol: the listening socket
 * and the thread; one poll() set, reused every turn; accept with a
 * connection cap (a refused client is sent Config::refusal, then
 * closed) and TCP_NODELAY; buffered recv and send; and wake(), on one
 * eventfd, coalesced. One error rule covers every connection:
 *
 *  - a recv/send error other than EAGAIN/EINTR, or POLLERR/POLLNVAL,
 *    makes it dead: nothing more is read or sent, what it owed is
 *    dropped;
 *  - EOF means the peer will send nothing more: what is owed is
 *    flushed, then the connection closes;
 *  - it closes only once its handler is not busy. Meanwhile, a
 *    connection that wants neither input nor output (a dead one, or one
 *    waiting on its handler) leaves the poll set, so a hung-up socket
 *    cannot spin the loop.
 */
#pragma once

#include <poll.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/stats.h"

namespace prism::net {

class EventLoop {
  public:
    /** One client connection; a handler derives its state from it. */
    class Conn {
      public:
        virtual ~Conn() = default;

        /** Bytes owed to the peer: the handler appends, the loop sends. */
        std::string out;
        /**
         * Read nothing more; close once `out` is sent and the handler
         * is not busy. Set by the handler (QUIT, a request answered) or
         * by the loop (the connection died, the loop stops).
         */
        bool close = false;

        size_t unsent() const { return out.size() - sent_; }

      private:
        friend class EventLoop;
        int fd_ = -1;
        size_t sent_ = 0;
        bool eof_ = false;   ///< the peer will send nothing more
        bool dead_ = false;  ///< nothing more is read or sent
    };

    /** The protocol side of a loop. Every hook runs on the loop thread. */
    class Handler {
      public:
        virtual ~Handler() = default;
        /** State for a newly accepted connection. */
        virtual std::unique_ptr<Conn> open() = 0;
        /**
         * Run the protocol on @p c: consume @p input (the bytes received
         * since the last call, often none) and append replies to c.out.
         * Called as bytes arrive, and for every connection once a turn.
         */
        virtual void serve(Conn &c, std::string_view input) = 0;
        /** Whether to read @p c now; false pauses it (backpressure). */
        virtual bool wantsInput(Conn &c) { return true; }
        /** True while @p c has work in flight; it stays open until false. */
        virtual bool busy(const Conn &c) const { return false; }
    };

    /** Registry metrics the loop keeps; null ones are not kept. */
    struct Meters {
        stats::Gauge *port = nullptr;         ///< bound port, 0 stopped
        stats::Gauge *connections = nullptr;  ///< open connections
        stats::Counter *accepted = nullptr;
        stats::Counter *rejected = nullptr;   ///< refused at the cap
        stats::Counter *bytes_in = nullptr;
        stats::Counter *bytes_out = nullptr;
    };

    struct Config {
        std::string bind_addr = "127.0.0.1";
        int port = 0;             ///< 0 binds an ephemeral port
        size_t max_conns = 0;     ///< clients beyond this are refused
        std::string refusal;      ///< sent to a refused client
        std::string thread_name;  ///< the tracer's name for the thread
        Meters meters;
    };

    /** @p handler outlives the loop. */
    explicit EventLoop(Handler &handler) : handler_(handler) {}
    ~EventLoop();

    EventLoop(const EventLoop &) = delete;
    EventLoop &operator=(const EventLoop &) = delete;

    /** Bind + listen + spawn the thread. False (and @p err) on failure. */
    bool start(const Config &cfg, std::string *err);

    /**
     * Stop accepting, drop every connection once its handler is not
     * busy (unsent replies are discarded), join the thread and close
     * the listener. Idempotent. wake() stays safe until destruction.
     */
    void stop();

    /** Bound TCP port while running (resolves port 0), else 0. */
    int port() const { return port_.load(std::memory_order_acquire); }

    /**
     * Serve every connection again: a completion the handler waits for
     * has run. Callable from any thread. On the loop thread it makes no
     * syscall; elsewhere it writes the eventfd only when no earlier
     * wake is still pending.
     */
    void wake();

  private:
    void run();
    void acceptAll();
    void receive(Conn &c);
    void send(Conn &c);
    /** Serve and flush every connection, then close the finished ones. */
    void servePass();

    Handler &handler_;
    Config cfg_;

    std::mutex mu_;  ///< guards start/stop
    int listen_fd_ = -1;
    int event_fd_ = -1;  ///< made by the first start(), closed by the dtor
    std::atomic<int> port_{0};
    std::atomic<bool> stopping_{false};
    /** The eventfd has a wake the loop has not drained (see wake()). */
    std::atomic<bool> wake_pending_{false};
    /** Loop thread only: wake() ran on the loop thread this pass. */
    bool again_ = false;

    std::vector<std::unique_ptr<Conn>> conns_;  ///< loop thread only
    std::vector<pollfd> pfds_;  ///< [0] eventfd, [1] listener, [2..] conns_
    std::thread thread_;
};

}  // namespace prism::net

/**
 * @file
 * Open-loop RESP load generator: one thread, a few connections.
 *
 * Requests follow a fixed schedule (uniform spacing at the offered
 * rate). The thread sleeps in ppoll() with a nanosecond timeout until
 * the next request is due or a reply arrives; it never spins. Each
 * request is timed from its scheduled send, so a stall in the server
 * also charges the requests that queue behind it, and the generator's
 * own lateness (actual send minus scheduled send) is reported on its
 * own, so a late generator is not mistaken for a slow server.
 *
 * Every reply is checked: GET values must decode (see ValueCodec), name
 * the requested key and carry a version written for it no older than
 * the last one acknowledged before the GET was sent; SET must answer
 * +OK. Error replies and wrong values count as failures.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "inputs.h"

namespace perfbench {

struct WireOp {
    uint64_t key = 0;
    bool is_set = false;
};

/** One request's timeline (kept when tracing). */
struct ClientSpan {
    uint64_t key = 0;
    uint64_t sched_ns = 0;
    uint64_t send_ns = 0;
    uint64_t recv_ns = 0;
    bool is_set = false;
};

/** The samples of one window of a phase's schedule. */
struct WireWindow {
    std::vector<float> get_us, set_us;  ///< scheduled send to reply
    std::vector<float> op_us;           ///< both kinds
    std::vector<float> lag_us;          ///< actual minus scheduled send
};

/**
 * The median over @p windows of each window's @p q quantile of
 * @p field (windows without samples skipped): a burst that spoils a
 * few windows does not move it.
 */
double windowMedian(const std::vector<WireWindow> &windows,
                    std::vector<float> WireWindow::*field, double q);

struct WireResult {
    double offered_ops = 0;  ///< rate asked for
    uint64_t attempted = 0;  ///< requests scheduled and sent
    uint64_t completed = 0;  ///< replies received
    uint64_t failed = 0;     ///< error replies, wrong values, no reply
    bool backlogged = false; ///< stopped early: the backlog kept growing
    std::vector<WireWindow> windows;  ///< by scheduled send time
    uint64_t first_sched_ns = 0, last_recv_ns = 0;
    uint64_t gen_cpu_ns = 0;   ///< this generator thread
    uint64_t proc_cpu_ns = 0;  ///< whole process, same interval
    std::vector<ClientSpan> spans;  ///< filled when tracing

    /** Completed ops per second over the phase. */
    double achievedOps() const;
    /** Every window's samples of @p field, concatenated. */
    std::vector<float> all(std::vector<float> WireWindow::*field) const;
};

class WireClient {
  public:
    WireClient(int port, int conns, size_t value_bytes, KeyVersions &kv);
    ~WireClient();

    WireClient(const WireClient &) = delete;
    WireClient &operator=(const WireClient &) = delete;

    /**
     * Send ops from @p next at @p rate ops/s for @p seconds, then wait
     * for every reply. Samples are grouped into windows of @p window_s
     * by scheduled send time. With @p stop_on_backlog, sending stops
     * once a request has waited kBacklogNs unanswered: the server is
     * not keeping up with this rate.
     */
    WireResult run(double rate, double seconds, double window_s,
                   const std::function<WireOp()> &next, bool stop_on_backlog,
                   bool keep_spans);

    static constexpr uint64_t kBacklogNs = 250000000;

  private:
    struct Req {
        uint64_t key;
        uint64_t sched_ns;
        uint64_t send_ns;
        uint64_t version;  ///< SET: version sent; GET: floor at send
        bool is_set;
        bool solo;  ///< see KeyVersions::Write
    };
    struct Conn {
        int fd = -1;
        std::string out;
        size_t out_off = 0;
        std::string in;
        size_t in_off = 0;
        std::deque<Req> fifo;
    };
    WireWindow &windowOf(WireResult &r, uint64_t sched_ns) const;

    void appendRequest(Conn &c, const WireOp &op, uint64_t sched_ns);
    bool flushOut(Conn &c);
    /** Read and check every complete reply; false on a broken socket. */
    bool readReplies(Conn &c, WireResult &r, bool keep_spans);

    static constexpr int kGeneratorNice = -10;

    size_t value_bytes_;
    KeyVersions &kv_;
    int old_nice_ = 0;
    std::vector<Conn> conns_;
    std::string value_buf_;
    uint64_t t0_ = 0, window_ns_ = 1;  ///< the running phase's
};

}  // namespace perfbench

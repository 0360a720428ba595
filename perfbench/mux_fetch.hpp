/**
 * @file
 * Closed-loop fetch over one MuxClient connection, timed per chunk.
 *
 * All channels are opened first. Then every channel keeps at most
 * pullDepth pulls outstanding and sends its next pull only after a
 * chunk reply, so a slow server receives less load (a closed loop with
 * seeds.size() callers). Each chunk's latency runs from the pull that
 * asked for it to the reply.
 */
#ifndef MOCKTAILS_PERFBENCH_MUX_FETCH_HPP
#define MOCKTAILS_PERFBENCH_MUX_FETCH_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "mem/request.hpp"
#include "serve/client.hpp"

namespace perfbench
{

struct FetchPlan
{
    std::string id;                   ///< profile id in the server's store
    std::vector<std::uint64_t> seeds; ///< one channel per seed
    std::uint64_t chunkRequests = 512;
    std::uint64_t pullDepth = 2;
    /** Chunks pulled per channel before closing it; 0 = drain. */
    std::uint64_t chunksPerChannel = 0;
};

struct FetchResult
{
    bool ok = false;
    std::string error;
    double wallSeconds = 0.0;
    std::uint64_t requests = 0;
    /** Channels that delivered every chunk they asked for. */
    std::uint64_t channelsCompleted = 0;
    /** Pull-to-reply latency of every non-empty chunk, in ms. */
    std::vector<double> chunkLatencyMs;
    /** Delivered records, one stream per channel (plan.seeds order). */
    std::vector<std::vector<mocktails::mem::Request>> streams;
};

/**
 * Run @p plan on @p client. Channel ids are taken from @p nextChannel
 * and advanced, so one connection serves many fetches.
 */
FetchResult fetchClosedLoop(mocktails::serve::MuxClient &client,
                            const FetchPlan &plan,
                            std::uint64_t &nextChannel);

} // namespace perfbench

#endif // MOCKTAILS_PERFBENCH_MUX_FETCH_HPP

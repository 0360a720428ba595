#include "mux_fetch.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

struct ChannelLoop
{
    std::size_t index = 0; ///< position in plan.seeds / result.streams
    std::uint64_t pulls = 0;
    std::deque<Clock::time_point> sent; ///< one entry per pending pull
    bool closing = false;
};

} // namespace

FetchResult
fetchClosedLoop(mocktails::serve::MuxClient &client, const FetchPlan &plan,
                std::uint64_t &nextChannel)
{
    using Event = mocktails::serve::MuxClient::Event;

    FetchResult result;
    result.streams.resize(plan.seeds.size());
    std::map<std::uint64_t, ChannelLoop> loops;

    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < plan.seeds.size(); ++i) {
        const std::uint64_t id = nextChannel++;
        if (!client.openChannel(id, plan.id, plan.seeds[i],
                                &result.error))
            return result;
        client.setSink(id, &result.streams[i]);
        loops[id].index = i;
    }

    const auto pullOne = [&](std::uint64_t id, ChannelLoop &loop) {
        loop.sent.push_back(Clock::now());
        ++loop.pulls;
        return client.pull(id, plan.chunkRequests, &result.error);
    };
    // Top a channel up to pullDepth pending pulls, or close it once it
    // has everything it asked for and nothing is pending.
    const auto advance = [&](std::uint64_t id, ChannelLoop &loop) {
        const auto *state = client.channel(id);
        const bool capped = plan.chunksPerChannel != 0 &&
                            loop.pulls >= plan.chunksPerChannel;
        if (state->done || capped) {
            if (loop.sent.empty() && !loop.closing) {
                loop.closing = true;
                return client.closeChannel(id, &result.error);
            }
            return true;
        }
        while (loop.sent.size() < plan.pullDepth &&
               (plan.chunksPerChannel == 0 ||
                loop.pulls < plan.chunksPerChannel)) {
            if (!pullOne(id, loop))
                return false;
        }
        return true;
    };

    std::size_t opened = 0;
    std::size_t live = loops.size();
    while (live > 0) {
        Event event;
        if (!client.nextEvent(event, &result.error))
            return result;
        const auto it = loops.find(event.channel);
        if (it == loops.end())
            continue;
        ChannelLoop &loop = it->second;
        switch (event.kind) {
          case Event::Kind::Opened:
            // Pull only once every channel is open, so chunk latency
            // measures streaming, not other channels' session set-up.
            if (++opened == loops.size()) {
                for (auto &[id, l] : loops) {
                    if (!advance(id, l))
                        return result;
                }
            }
            break;
          case Event::Kind::Chunk: {
            if (!loop.sent.empty()) {
                if (event.count > 0) {
                    result.chunkLatencyMs.push_back(
                        std::chrono::duration<double, std::milli>(
                            Clock::now() - loop.sent.front())
                            .count());
                }
                loop.sent.pop_front();
            }
            result.requests += event.count;
            if (!advance(event.channel, loop))
                return result;
            break;
          }
          case Event::Kind::Closed: {
            --live;
            const auto *state = client.channel(event.channel);
            const std::uint64_t want =
                plan.chunksPerChannel == 0
                    ? state->total
                    : std::min(state->total,
                               plan.chunksPerChannel * plan.chunkRequests);
            if (result.streams[loop.index].size() == want)
                ++result.channelsCompleted;
            break;
          }
          case Event::Kind::ChannelError:
            result.error = "channel " + std::to_string(event.channel) +
                           ": " + event.message;
            return result;
        }
    }
    result.wallSeconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    result.ok = true;
    return result;
}

} // namespace perfbench

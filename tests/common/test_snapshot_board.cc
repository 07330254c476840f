/**
 * @file
 * SnapshotBoard under concurrent publish and scrape. The FleetHealth
 * suite covers the board's contract (null before the first publish,
 * old readers keep their buffer, the publish count) with payloads
 * that own no heap memory. Here the payload owns a string, as the
 * router's status text does, so a scraper that drops the last
 * reference frees the buffer on its own thread; under the asan and
 * tsan presets that is where a use-after-free or a torn read would
 * show.
 */

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/snapshot_board.h"

using wsva::SnapshotBoard;

namespace {

/** A payload whose parts must agree: text is `count` copies of 'x'. */
struct Page
{
    std::string text;
    size_t count = 0;
};

Page
pageOf(size_t count)
{
    return Page{std::string(count, 'x'), count};
}

} // namespace

TEST(SnapshotBoard, ScrapersDropBuffersWhilePublisherSwaps)
{
    SnapshotBoard<Page> board;
    board.publish(pageOf(0));
    std::atomic<int> ready{0};
    std::atomic<bool> stop{false};
    std::atomic<bool> torn{false};
    std::vector<std::thread> scrapers;
    for (int t = 0; t < 3; ++t) {
        scrapers.emplace_back([&] {
            ready.fetch_add(1, std::memory_order_release);
            while (!stop.load(std::memory_order_acquire)) {
                const auto page = board.snapshot();
                if (page->text.size() != page->count)
                    torn.store(true, std::memory_order_relaxed);
            }
        });
    }
    while (ready.load(std::memory_order_acquire) < 3)
        std::this_thread::yield();
    for (size_t n = 1; n <= 2000; ++n)
        board.publish(pageOf(n % 97));
    stop.store(true, std::memory_order_release);
    for (auto &s : scrapers)
        s.join();
    EXPECT_FALSE(torn.load());
    EXPECT_EQ(board.publishes(), 2001u);
    EXPECT_EQ(board.snapshot()->count, 2000u % 97);
}

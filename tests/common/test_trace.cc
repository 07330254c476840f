#include "common/trace.h"

#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "support/mini_json.h"

namespace wsva {
namespace {

using wsva::testsupport::JsonValue;
using wsva::testsupport::parseJson;

/** The retained span with the given name, or nullptr. */
const SpanRecord *
findSpan(const std::vector<SpanRecord> &spans, const std::string &name)
{
    for (const auto &s : spans) {
        if (name == s.name)
            return &s;
    }
    return nullptr;
}

TEST(Tracer, IdsStartAtOneAndIncrease)
{
    Tracer tracer;
    EXPECT_EQ(tracer.nextId(), 1u);
    EXPECT_EQ(tracer.nextId(), 2u);
}

TEST(Tracer, RecordAssignsIdWhenZero)
{
    Tracer tracer;
    SpanRecord rec;
    rec.name = "a";
    tracer.record(rec);
    const auto spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_GT(spans[0].id, 0u);
}

TEST(Tracer, RecordKeepsPreallocatedId)
{
    Tracer tracer;
    const uint64_t id = tracer.nextId();
    SpanRecord rec;
    rec.name = "upload";
    rec.id = id;
    tracer.record(rec);
    const auto spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].id, id);
}

TEST(Tracer, DisabledRecordsNothing)
{
    Tracer tracer;
    tracer.setEnabled(false);
    tracer.record(SpanRecord{});
    tracer.instant("x", "y");
    EXPECT_EQ(tracer.recordSimSpan("s", "c", 0.0, 1.0, 0), 0u);
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(Tracer, RingDropsOldestBeyondCapacity)
{
    Tracer tracer(4);
    for (uint64_t i = 0; i < 10; ++i)
        tracer.recordSimSpan("s", "c", static_cast<double>(i),
                             static_cast<double>(i + 1), 0);
    EXPECT_EQ(tracer.size(), 4u);
    EXPECT_EQ(tracer.recorded(), 10u);
    EXPECT_EQ(tracer.dropped(), 6u);
    const auto spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 4u);
    // Oldest-first snapshot of the last four records.
    EXPECT_DOUBLE_EQ(spans.front().begin_us, 6.0);
    EXPECT_DOUBLE_EQ(spans.back().begin_us, 9.0);
}

TEST(Tracer, ClearDropsSpansAndCounters)
{
    Tracer tracer;
    tracer.recordSimSpan("s", "c", 0.0, 1.0, 0);
    tracer.clear();
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.recorded(), 0u);
    EXPECT_TRUE(tracer.enabled());
}

TEST(Tracer, InternReturnsStablePointerForEqualStrings)
{
    Tracer tracer;
    const char *a = tracer.intern("motion_rdo");
    const char *b = tracer.intern("motion_rdo");
    const char *c = tracer.intern("entropy");
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_STREQ(a, "motion_rdo");
}

TEST(Span, RecordsIntervalWithNesting)
{
    Tracer tracer;
    uint64_t outer_id = 0;
    {
        Span outer(&tracer, "outer", "test");
        outer_id = outer.id();
        ASSERT_GT(outer_id, 0u);
        {
            Span inner(&tracer, "inner", "test");
            inner.arg("k", 7);
        }
    }
    const auto spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 2u); // Inner closes (and records) first.
    const SpanRecord *inner = findSpan(spans, "inner");
    const SpanRecord *outer = findSpan(spans, "outer");
    ASSERT_NE(inner, nullptr);
    ASSERT_NE(outer, nullptr);
    EXPECT_EQ(inner->parent, outer_id);
    EXPECT_EQ(outer->parent, 0u);
    EXPECT_STREQ(inner->arg1_key, "k");
    EXPECT_EQ(inner->arg1, 7u);
    EXPECT_GE(inner->end_us, inner->begin_us);
    EXPECT_LE(outer->begin_us, inner->begin_us);
}

TEST(Span, NullOrDisabledTracerIsInert)
{
    {
        Span span(nullptr, "x");
        span.arg("k", 1);
        EXPECT_EQ(span.id(), 0u);
    }
    Tracer tracer;
    tracer.setEnabled(false);
    {
        Span span(&tracer, "x");
        EXPECT_EQ(span.id(), 0u);
    }
    EXPECT_EQ(tracer.size(), 0u);
    // A disabled span must not install itself as context.
    EXPECT_EQ(currentSpanContext().tracer, nullptr);
}

TEST(Span, ContextRestoredAfterScope)
{
    Tracer tracer;
    {
        Span outer(&tracer, "outer");
        EXPECT_EQ(currentSpanContext().span_id, outer.id());
        {
            Span inner(&tracer, "inner");
            EXPECT_EQ(currentSpanContext().span_id, inner.id());
        }
        EXPECT_EQ(currentSpanContext().span_id, outer.id());
    }
    EXPECT_EQ(currentSpanContext().tracer, nullptr);
}

TEST(SpanContext, PropagatesAcrossParallelFor)
{
    // The two bodies wait for each other, so one of them runs on the
    // pool's helper: its span must still parent to the caller's root.
    Tracer tracer;
    ThreadPool pool(2);
    uint64_t root_id = 0;
    std::atomic<int> arrived{0};
    std::mutex mutex;
    std::set<std::thread::id> threads;
    {
        Span root(&tracer, "root");
        root_id = root.id();
        pool.parallelFor(2, [&](size_t) {
            Span child(&tracer, "pool_child");
            {
                std::lock_guard<std::mutex> lock(mutex);
                threads.insert(std::this_thread::get_id());
            }
            arrived.fetch_add(1);
            while (arrived.load() < 2)
                std::this_thread::yield();
        });
    }
    EXPECT_EQ(threads.size(), 2u);
    size_t children = 0;
    for (const auto &rec : tracer.snapshot()) {
        if (std::string(rec.name) != "pool_child")
            continue;
        ++children;
        EXPECT_EQ(rec.parent, root_id);
    }
    EXPECT_EQ(children, 2u);
}

TEST(SpanContext, PropagatesAcrossParallelForUnderStealing)
{
    Tracer tracer;
    ThreadPool pool(4);
    constexpr size_t kJobs = 64;
    uint64_t root_id = 0;
    {
        Span root(&tracer, "root");
        root_id = root.id();
        pool.parallelFor(kJobs, [&](size_t i) {
            Span job(&tracer, "job");
            job.arg("i", i);
        });
    }
    size_t jobs_seen = 0;
    std::set<uint64_t> job_ids;
    for (const auto &rec : tracer.snapshot()) {
        if (std::string(rec.name) != "job")
            continue;
        ++jobs_seen;
        EXPECT_EQ(rec.parent, root_id);
        job_ids.insert(rec.id);
    }
    EXPECT_EQ(jobs_seen, kJobs);
    EXPECT_EQ(job_ids.size(), kJobs); // Ids unique across threads.
}

TEST(SpanContext, ParallelForOutsideAnySpanHasNoParent)
{
    Tracer tracer;
    ThreadPool pool(2);
    pool.parallelFor(8, [&tracer](size_t) { Span s(&tracer, "orphan"); });
    size_t orphans = 0;
    for (const auto &rec : tracer.snapshot()) {
        if (std::string(rec.name) != "orphan")
            continue;
        ++orphans;
        EXPECT_EQ(rec.parent, 0u);
    }
    EXPECT_EQ(orphans, 8u);
}

TEST(SpanContext, DoesNotLeakParentAcrossTracers)
{
    Tracer a;
    Tracer b;
    {
        Span outer(&a, "outer_a");
        Span inner(&b, "inner_b");
        EXPECT_EQ(inner.id(), 1u);
    }
    const auto spans = b.snapshot();
    const SpanRecord *inner = findSpan(spans, "inner_b");
    ASSERT_NE(inner, nullptr);
    // Tracer a's span must not masquerade as a parent id in tracer b.
    EXPECT_EQ(inner->parent, 0u);
}

TEST(SpanContext, DisabledTracerCostsNoContextInstall)
{
    Tracer tracer;
    tracer.setEnabled(false);
    ThreadPool pool(2);
    std::atomic<int> with_context{0};
    {
        Span root(&tracer, "root");
        pool.parallelFor(8, [&](size_t) {
            if (currentSpanContext().tracer != nullptr)
                with_context.fetch_add(1);
        });
    }
    EXPECT_EQ(tracer.recorded(), 0u);
    EXPECT_EQ(with_context.load(), 0);
}

TEST(ChromeExport, EmitsParsableJsonWithSpanEvents)
{
    Tracer tracer;
    {
        Span outer(&tracer, "transcode", "pipeline");
        outer.arg("chunks", 3);
        Span inner(&tracer, "encode_chunk", "pipeline");
    }
    tracer.instant("rq_cache.hit", "rq_cache", "fingerprint", 42);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(tracer.exportChromeTrace(), &doc, &error))
        << error;
    EXPECT_EQ(doc.numberAt("schema_version"), 1.0);
    EXPECT_EQ(doc.stringAt("displayTimeUnit"), "ms");
    const JsonValue *events = doc.get("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    bool saw_transcode = false;
    bool saw_instant = false;
    bool saw_process_name = false;
    for (const auto &ev : events->array) {
        const std::string name = ev.stringAt("name");
        if (name == "process_name") {
            saw_process_name = true;
            EXPECT_EQ(ev.stringAt("ph"), "M");
            continue;
        }
        if (name == "transcode") {
            saw_transcode = true;
            EXPECT_EQ(ev.stringAt("ph"), "X");
            EXPECT_EQ(ev.stringAt("cat"), "pipeline");
            EXPECT_TRUE(ev.has("ts"));
            EXPECT_TRUE(ev.has("dur"));
            const JsonValue *args = ev.get("args");
            ASSERT_NE(args, nullptr);
            EXPECT_EQ(args->numberAt("chunks"), 3.0);
            EXPECT_GT(args->numberAt("id"), 0.0);
        }
        if (name == "rq_cache.hit") {
            saw_instant = true;
            EXPECT_EQ(ev.stringAt("ph"), "i");
            const JsonValue *args = ev.get("args");
            ASSERT_NE(args, nullptr);
            EXPECT_EQ(args->numberAt("fingerprint"), 42.0);
        }
    }
    EXPECT_TRUE(saw_transcode);
    EXPECT_TRUE(saw_instant);
    EXPECT_TRUE(saw_process_name);
}

TEST(ChromeExport, ParentIdsLinkChildToParentInArgs)
{
    Tracer tracer;
    uint64_t outer_id = 0;
    {
        Span outer(&tracer, "outer");
        outer_id = outer.id();
        Span inner(&tracer, "inner");
    }
    JsonValue doc;
    ASSERT_TRUE(parseJson(tracer.exportChromeTrace(), &doc));
    for (const auto &ev : doc.get("traceEvents")->array) {
        if (ev.stringAt("name") == "inner") {
            EXPECT_EQ(ev.get("args")->numberAt("parent"),
                      static_cast<double>(outer_id));
            return;
        }
    }
    FAIL() << "inner span missing from export";
}

TEST(ChromeExport, BridgesTraceLogEventsAsInstantsAndCounters)
{
    Tracer tracer;
    tracer.recordSimSpan("upload", "cluster", 0.0, 2e6, 0);

    TraceLog log;
    log.record(TraceEventType::StepScheduled, 1.0, 0, 3, 11, 7);
    log.record(TraceEventType::StepCompleted, 2.0, 0, 3, 11, 7);
    log.record(TraceEventType::SloAlert, 3.0);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(tracer.exportChromeTrace(&log), &doc, &error))
        << error;

    bool saw_scheduled = false;
    bool saw_alert = false;
    int counter_events = 0;
    for (const auto &ev : doc.get("traceEvents")->array) {
        const std::string name = ev.stringAt("name");
        if (name == "step_scheduled") {
            saw_scheduled = true;
            EXPECT_EQ(ev.stringAt("ph"), "i");
            EXPECT_EQ(ev.stringAt("cat"), "cluster_event");
            EXPECT_DOUBLE_EQ(ev.numberAt("ts"), 1e6);
            const JsonValue *args = ev.get("args");
            ASSERT_NE(args, nullptr);
            EXPECT_EQ(args->numberAt("worker"), 3.0);
            EXPECT_EQ(args->numberAt("step"), 11.0);
        }
        if (name == "slo_alert")
            saw_alert = true;
        if (name == "cluster_events") {
            EXPECT_EQ(ev.stringAt("ph"), "C");
            ++counter_events;
        }
    }
    EXPECT_TRUE(saw_scheduled);
    EXPECT_TRUE(saw_alert);
    EXPECT_EQ(counter_events, 3); // One counter bump per event.
}

TEST(ChromeExport, SimSpansAreByteIdenticalAcrossTracers)
{
    const auto record = [](Tracer &tracer) {
        const uint64_t root =
            tracer.recordSimSpan("upload", "cluster", 0.0, 5e6, 0);
        tracer.recordSimSpan("queue_wait", "cluster", 0.0, 1e6, 1,
                             root, kProcessSim, "step", 1);
        tracer.recordSimSpan("execute", "cluster", 1e6, 5e6, 1, root,
                             kProcessSim, "step", 1);
        tracer.recordSimSpan("motion_rdo", "hlsim", 0.0, 352.0, 0, 0,
                             kProcessHlsim, "item", 0);
    };
    Tracer a;
    Tracer b;
    record(a);
    record(b);
    EXPECT_EQ(a.exportChromeTrace(), b.exportChromeTrace());
}

TEST(ChromeExport, ConcurrentWallSpansAllSurvive)
{
    Tracer tracer;
    ThreadPool pool(4);
    {
        Span root(&tracer, "root");
        pool.parallelFor(128, [&](size_t i) {
            Span job(&tracer, "job");
            job.arg("i", i);
        });
    }
    EXPECT_EQ(tracer.recorded(), 129u);
    JsonValue doc;
    ASSERT_TRUE(parseJson(tracer.exportChromeTrace(), &doc));
}

TEST(Tracer, SnapshotWhileRecordingHammer)
{
    // /tracez snapshots the span ring from a handler thread while
    // workers keep recording. The ring lock covers only the copy-out,
    // so the scrape cannot stall recorders — and every copied span
    // must be fully formed (no torn begin/end pair). TSan certifies
    // the synchronization.
    Tracer tracer(256);
    std::atomic<bool> done{false};
    std::atomic<bool> scraper_up{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([&tracer, t, &scraper_up] {
            // Hold until the scraper spins, so snapshots really
            // interleave with the records.
            while (!scraper_up.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < 4000; ++i) {
                const double begin = i * 10.0;
                tracer.recordSimSpan("hammer", "test", begin,
                                     begin + 5.0, t, 0, 1, "i",
                                     static_cast<uint64_t>(i));
            }
        });
    }
    std::atomic<uint64_t> snapshots{0};
    std::atomic<int> torn{0};
    std::thread scraper([&] {
        scraper_up.store(true, std::memory_order_release);
        while (!done.load(std::memory_order_acquire)) {
            for (const auto &rec : tracer.snapshot()) {
                // Every span was recorded with end = begin + 5.
                if (rec.end_us != rec.begin_us + 5.0)
                    torn.fetch_add(1, std::memory_order_relaxed);
            }
            snapshots.fetch_add(1, std::memory_order_relaxed);
        }
    });
    for (auto &w : workers)
        w.join();
    done.store(true, std::memory_order_release);
    scraper.join();

    EXPECT_EQ(torn.load(), 0);
    EXPECT_GT(snapshots.load(), 0u);
    EXPECT_EQ(tracer.recorded(), 4u * 4000u);
    EXPECT_EQ(tracer.snapshot().size(), 256u);
}

} // namespace
} // namespace wsva

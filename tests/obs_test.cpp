// Contract tests for the observability layer: histogram bucketing
// edges, registry snapshot/exporter agreement, span nesting (including
// across thread-pool workers via AdoptParent), trace JSON
// well-formedness and the run-manifest writer.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "threading/pool.hpp"

namespace {

using namespace sgp;

// ------------------------------------------------------------- json --

TEST(ObsJson, QuoteEscapesControlCharacters) {
  EXPECT_EQ(obs::json_quote("plain"), "\"plain\"");
  EXPECT_EQ(obs::json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(obs::json_quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(obs::json_quote("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(obs::json_quote(std::string("a\x01") + "b"), "\"a\\u0001b\"");
}

TEST(ObsJson, NumberIsLocaleIndependentAndFiniteOnly) {
  EXPECT_EQ(obs::json_number(std::uint64_t{42}), "42");
  EXPECT_EQ(obs::json_number(1.5), "1.5");
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::quiet_NaN()),
            "null");
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()),
            "null");
}

TEST(ObsJson, ValidatorAcceptsWellFormedValues) {
  EXPECT_TRUE(obs::json_valid("{}"));
  EXPECT_TRUE(obs::json_valid("[1, 2.5, -3e4, \"x\", true, null]"));
  EXPECT_TRUE(obs::json_valid("{\"a\": {\"b\": [\"\\u00e9\"]}}"));
}

TEST(ObsJson, ValidatorRejectsMalformedValues) {
  EXPECT_FALSE(obs::json_valid(""));
  EXPECT_FALSE(obs::json_valid("{\"a\": 1,}"));     // trailing comma
  EXPECT_FALSE(obs::json_valid("{\"a\": nan}"));    // not a JSON token
  EXPECT_FALSE(obs::json_valid("{\"a\": 1} extra"));
  EXPECT_FALSE(obs::json_valid("{\"a\""));          // truncated
  EXPECT_FALSE(obs::json_valid("{\"a\":1,\"a\":2}"));  // duplicate key
  EXPECT_FALSE(obs::json_valid("[\"\xff\"]"));          // invalid byte
  EXPECT_FALSE(obs::json_valid("[\"\\ud800\"]"));      // lone surrogate
  EXPECT_FALSE(obs::json_valid("[1e999]"));            // out of range
  EXPECT_FALSE(obs::json_valid("[\"\xc0\x80\"]"));      // overlong
}

TEST(ObsJson, QuoteReplacesInvalidUtf8) {
  const std::string fffd = "\xef\xbf\xbd";
  // Valid UTF-8 passes through byte-identically.
  EXPECT_EQ(obs::json_quote("caf\xc3\xa9 \xf0\x9f\x98\x80"),
            "\"caf\xc3\xa9 \xf0\x9f\x98\x80\"");
  EXPECT_EQ(obs::json_quote("\xff.seg"), "\"" + fffd + ".seg\"");
  EXPECT_EQ(obs::json_quote("\xc0\x80"), "\"" + fffd + fffd + "\"");
  EXPECT_EQ(obs::json_quote("\xed\xa0\x80"),
            "\"" + fffd + fffd + fffd + "\"");
  EXPECT_EQ(obs::json_quote("a\xe2\x82"), "\"a" + fffd + fffd + "\"");
  EXPECT_TRUE(obs::json_valid(obs::json_quote("\x80\xbf\xf8\xfe")));
}

// ------------------------------------------------------- parse_u64 --

TEST(ParseU64, AcceptsFullRange) {
  EXPECT_EQ(obs::parse_u64("0"), 0u);
  EXPECT_EQ(obs::parse_u64("4242"), 4242u);
  EXPECT_EQ(obs::parse_u64("18446744073709551615"),
            18446744073709551615ull);
}

TEST(ParseU64, RejectsJunk) {
  EXPECT_FALSE(obs::parse_u64(""));
  EXPECT_FALSE(obs::parse_u64("-1"));
  EXPECT_FALSE(obs::parse_u64("+1"));
  EXPECT_FALSE(obs::parse_u64("1.5"));
  EXPECT_FALSE(obs::parse_u64("1e3"));
  EXPECT_FALSE(obs::parse_u64("12x"));
  EXPECT_FALSE(obs::parse_u64(" 12"));
  EXPECT_FALSE(obs::parse_u64("012"));  // no leading zeros
  EXPECT_FALSE(obs::parse_u64("18446744073709551616"));  // 2^64
  EXPECT_FALSE(obs::parse_u64("99999999999999999999999"));
}

// ------------------------------------------------------ JSON parser --

TEST(ServeJson, StrictGrammar) {
  EXPECT_TRUE(obs::json_parse("{\"a\":[1,2.5,-3e2,null,true]}").value);
  EXPECT_FALSE(obs::json_parse("").value);
  EXPECT_FALSE(obs::json_parse("{}trailing").value);
  EXPECT_FALSE(obs::json_parse("{\"a\":1,}").value);
  EXPECT_FALSE(obs::json_parse("{'a':1}").value);
  EXPECT_FALSE(obs::json_parse("{\"a\":01}").value);
  EXPECT_FALSE(obs::json_parse("{\"a\":1 \"b\":2}").value);
}

TEST(ServeJson, RejectsDuplicateKeys) {
  EXPECT_FALSE(obs::json_parse("{\"a\":1,\"a\":2}").value);
}

TEST(ServeJson, RejectsBadUtf8) {
  EXPECT_FALSE(obs::json_parse("{\"a\":\"\xff\"}").value);
  EXPECT_FALSE(obs::json_parse("{\"a\":\"\xc0\x80\"}").value);
  EXPECT_FALSE(obs::json_parse("{\"a\":\"\xed\xa0\x80\"}").value);
  EXPECT_TRUE(obs::json_parse("{\"a\":\"\xc3\xa9\"}").value);  // é
}

TEST(ServeJson, EnforcesLimits) {
  obs::JsonLimits limits;
  limits.max_depth = 3;
  std::string deep = "[[[[0]]]]";
  EXPECT_FALSE(obs::json_parse(deep, limits).value);
  EXPECT_TRUE(obs::json_parse("[[[0]]]", limits).value);
}

// ---------------------------------------------------------- metrics --

TEST(ObsHistogram, BucketEdges) {
  using H = obs::Histogram;
  EXPECT_EQ(H::bucket_of(0), 0);
  EXPECT_EQ(H::bucket_of(1), 1);
  EXPECT_EQ(H::bucket_of(2), 2);  // [2, 4)
  EXPECT_EQ(H::bucket_of(3), 2);
  EXPECT_EQ(H::bucket_of(4), 3);  // [4, 8)
  EXPECT_EQ(H::bucket_of(7), 3);
  EXPECT_EQ(H::bucket_of(8), 4);
  // The top bucket absorbs everything that would overflow the table.
  EXPECT_EQ(H::bucket_of(~std::uint64_t{0}), H::kBuckets - 1);
  EXPECT_EQ(H::bucket_floor(0), 0u);
  EXPECT_EQ(H::bucket_floor(1), 1u);
  EXPECT_EQ(H::bucket_floor(2), 2u);
  EXPECT_EQ(H::bucket_floor(3), 4u);
}

TEST(ObsHistogram, ObserveAccumulates) {
  obs::Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(3);
  h.observe(3);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 7u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket(2), 0u);
}

TEST(ObsRegistry, ReturnsStableReferences) {
  obs::Counter& a = obs::registry().counter("obs_test.stable");
  obs::Counter& b = obs::registry().counter("obs_test.stable");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(ObsRegistry, SnapshotMatchesExporterAndIsDeterministic) {
  obs::registry().counter("obs_test.snap_counter").add(5);
  obs::registry().gauge("obs_test.snap_gauge").set(2.5);
  obs::registry().histogram("obs_test.snap_hist").observe(9);
  obs::registry().gauge_callback("obs_test.snap_cb", [] { return 7.0; });

  const obs::MetricsSnapshot s1 = obs::registry().snapshot();
  const obs::MetricsSnapshot s2 = obs::registry().snapshot();
  const std::string j1 = obs::Registry::to_json(s1);
  const std::string j2 = obs::Registry::to_json(s2);
  // Same state, two snapshots: byte-identical exports.
  EXPECT_EQ(j1, j2);
  EXPECT_TRUE(obs::json_valid(j1)) << j1;
  EXPECT_NE(j1.find("\"obs_test.snap_counter\""), std::string::npos);
  EXPECT_NE(j1.find("\"obs_test.snap_gauge\""), std::string::npos);
  EXPECT_NE(j1.find("\"obs_test.snap_hist\""), std::string::npos);
  EXPECT_NE(j1.find("\"obs_test.snap_cb\""), std::string::npos);

  EXPECT_GE(s1.counter_or("obs_test.snap_counter"), 5u);
  EXPECT_EQ(s1.counter_or("obs_test.no_such", 99u), 99u);
}

// ------------------------------------------------------------ spans --

TEST(ObsTrace, DisabledSpansCostNothingAndRecordNothing) {
  obs::tracer().disable();
  obs::tracer().clear();
  {
    const obs::Span s("obs_test.disabled");
    EXPECT_FALSE(s.active());
    EXPECT_EQ(obs::current_span(), 0u);
  }
  EXPECT_EQ(obs::tracer().event_count(), 0u);
}

TEST(ObsTrace, SpansNestWithinOneThread) {
  obs::tracer().enable();
  obs::tracer().clear();
  std::uint64_t outer_id = 0;
  std::uint64_t inner_id = 0;
  {
    const obs::Span outer("obs_test.outer");
    outer_id = outer.id();
    EXPECT_EQ(obs::current_span(), outer_id);
    {
      const obs::Span inner("obs_test.inner");
      inner_id = inner.id();
      EXPECT_EQ(obs::current_span(), inner_id);
    }
    EXPECT_EQ(obs::current_span(), outer_id);
  }
  obs::tracer().disable();

  std::map<std::string, obs::SpanEvent> by_name;
  for (const auto& ev : obs::tracer().events()) by_name[ev.name] = ev;
  ASSERT_EQ(by_name.count("obs_test.outer"), 1u);
  ASSERT_EQ(by_name.count("obs_test.inner"), 1u);
  EXPECT_EQ(by_name["obs_test.inner"].parent, outer_id);
  EXPECT_EQ(by_name["obs_test.outer"].parent, 0u);
  EXPECT_EQ(by_name["obs_test.inner"].id, inner_id);
  EXPECT_LE(by_name["obs_test.outer"].start_us,
            by_name["obs_test.inner"].start_us);
}

TEST(ObsTrace, PoolChunksAdoptTheDispatchingSpanAcrossThreads) {
  obs::tracer().enable();
  obs::tracer().clear();
  std::uint64_t batch_id = 0;
  {
    const obs::Span batch("obs_test.batch");
    batch_id = batch.id();
    threading::ThreadPool pool(3);
    pool.parallel_for(64, [](std::size_t b, std::size_t e, int) {
      for (std::size_t i = b; i < e; ++i) {
        const obs::Span leaf("obs_test.leaf");
        (void)leaf;
      }
    });
  }
  obs::tracer().disable();

  const auto events = obs::tracer().events();
  std::uint64_t dispatch_id = 0;
  for (const auto& ev : events) {
    if (ev.name == "ThreadPool::parallel_for") {
      EXPECT_EQ(ev.parent, batch_id);
      dispatch_id = ev.id;
    }
  }
  ASSERT_NE(dispatch_id, 0u);

  std::vector<std::uint64_t> chunk_ids;
  for (const auto& ev : events) {
    if (ev.name == "pool.chunk") {
      // Worker chunks hang under the dispatching scope even though
      // they ran on other threads (AdoptParent).
      EXPECT_EQ(ev.parent, dispatch_id);
      chunk_ids.push_back(ev.id);
    }
  }
  EXPECT_FALSE(chunk_ids.empty());

  std::size_t leaves = 0;
  for (const auto& ev : events) {
    if (ev.name != "obs_test.leaf") continue;
    ++leaves;
    EXPECT_NE(std::find(chunk_ids.begin(), chunk_ids.end(), ev.parent),
              chunk_ids.end())
        << "leaf span not parented to any pool chunk";
  }
  EXPECT_EQ(leaves, 64u);
}

TEST(ObsTrace, ChromeTraceJsonIsWellFormed) {
  obs::tracer().enable();
  obs::tracer().clear();
  {
    const obs::Span s("obs_test.export \"quoted\" \\ name");
    (void)s;
  }
  obs::tracer().disable();
  const std::string json = obs::tracer().chrome_trace_json();
  EXPECT_TRUE(obs::json_valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

// --------------------------------------------------------- manifest --

TEST(ObsManifest, RendersWellFormedJson) {
  obs::RunManifest man("obs_test_tool");
  man.add("host", "os", "linux");
  man.add("host", "tricky", "quote\" backslash\\ newline\n");
  man.add("run", "threads", std::int64_t{-2});
  man.add("run", "reps", std::uint64_t{12});
  man.add("run", "factor", 0.25);
  man.add("run", "keep_going", true);
  man.add_phase("warmup", 0.5, 10);
  man.add_phase("measure", 1.5, 100);

  const std::string json = man.to_json(obs::registry().snapshot());
  EXPECT_TRUE(obs::json_valid(json)) << json;
  EXPECT_NE(json.find("\"sgp.run-manifest.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test_tool\""), std::string::npos);
  EXPECT_NE(json.find("\"warmup\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
}

TEST(ObsManifest, NonUtf8ValueRendersAsReplacementCharacter) {
  obs::RunManifest man("obs_test_tool");
  man.add("run", "checkpoint", "\xff.seg");
  const std::string json = man.to_json(obs::MetricsSnapshot{});
  EXPECT_TRUE(obs::json_valid(json)) << json;
  const auto parsed = obs::json_parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const obs::JsonValue* run = parsed.value->find("run");
  ASSERT_NE(run, nullptr);
  const obs::JsonValue* checkpoint = run->find("checkpoint");
  ASSERT_NE(checkpoint, nullptr);
  EXPECT_EQ(checkpoint->string, "\xef\xbf\xbd.seg");
}

TEST(ObsManifest, EmbeddedMetricsEqualRegistrySnapshot) {
  obs::registry().counter("obs_test.manifest_counter").add(11);
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  obs::RunManifest man("obs_test_tool");
  const std::string json = man.to_json(snap);
  // The manifest embeds exactly the exporter's rendering of the
  // snapshot it was given.
  EXPECT_NE(json.find(obs::Registry::to_json(snap)), std::string::npos);
}

// ------------------------------------------------- pool observability --

TEST(ObsPool, ExposesDispatchAndBusyCounters) {
  threading::ThreadPool pool(2);
  EXPECT_EQ(pool.dispatches(), 0u);
  const std::uint64_t epochs_before = pool.epochs();
  std::atomic<int> touched{0};
  pool.parallel_for(32, [&](std::size_t b, std::size_t e, int) {
    touched.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(touched.load(), 32);
  EXPECT_EQ(pool.dispatches(), 1u);
  EXPECT_EQ(pool.epochs(), epochs_before + 1);
  const std::vector<double> busy = pool.worker_busy_s();
  ASSERT_EQ(busy.size(), 2u);
  for (const double s : busy) EXPECT_GE(s, 0.0);
}

}  // namespace

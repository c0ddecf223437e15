// Wire-protocol tests: request parsing, spec round-trips, and the
// record/control line dichotomy the streaming clients rely on.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "service/protocol.hpp"
#include "support/json.hpp"
#include "sweep/record.hpp"
#include "sweep/spec.hpp"

namespace iw::service {
namespace {

sweep::SweepSpec sample_spec() {
  sweep::SweepSpec spec;
  spec.delay_ms = {6.25, 12.0};
  spec.msg_bytes = {4096, 1 << 20};
  spec.np = {8};
  spec.noise_E_percent = {2.5};
  spec.direction = {workload::Direction::bidirectional};
  spec.boundary = {workload::Boundary::periodic};
  spec.rdv_flavor = {mpi::RendezvousFlavor::rdma_put};
  spec.workload = sweep::Workload::ring;
  spec.steps = 7;
  spec.texec = microseconds(123.0);
  spec.injection_at = 1.0 / 3.0;  // not representable in decimal
  spec.system_noise = "none";
  spec.campaign_seed = 0xFFFFFFFFFFFFFFF5ull;  // above double's 2^53 range
  return spec;
}

TEST(Protocol, SpecRoundTripIsExact) {
  const sweep::SweepSpec spec = sample_spec();
  const sweep::SweepSpec rt = spec_from_json(json::parse(spec_to_json(spec)));
  EXPECT_EQ(rt.workload, spec.workload);
  EXPECT_EQ(rt.steps, spec.steps);
  EXPECT_EQ(rt.texec.ns(), spec.texec.ns());
  EXPECT_EQ(rt.distance, spec.distance);
  EXPECT_EQ(rt.injection_step, spec.injection_step);
  EXPECT_EQ(rt.injection_at, spec.injection_at);  // bit-exact via %.17g
  EXPECT_EQ(rt.min_idle.ns(), spec.min_idle.ns());
  EXPECT_EQ(rt.system_noise, spec.system_noise);
  EXPECT_EQ(rt.ffwd, spec.ffwd);
  EXPECT_EQ(rt.campaign_seed, spec.campaign_seed);  // quoted u64, no rounding
  EXPECT_EQ(rt.delay_ms, spec.delay_ms);
  EXPECT_EQ(rt.msg_bytes, spec.msg_bytes);
  EXPECT_EQ(rt.np, spec.np);
  EXPECT_EQ(rt.noise_E_percent, spec.noise_E_percent);
  EXPECT_EQ(rt.direction, spec.direction);
  EXPECT_EQ(rt.boundary, spec.boundary);
  EXPECT_EQ(rt.rdv_flavor, spec.rdv_flavor);
}

TEST(Protocol, SubmitLineParsesBack) {
  const Request req = parse_request(submit_line("alice", 3, sample_spec()));
  EXPECT_EQ(req.type, RequestType::submit);
  EXPECT_EQ(req.client, "alice");
  EXPECT_EQ(req.priority, 3);
  EXPECT_EQ(req.spec.campaign_seed, sample_spec().campaign_seed);
}

TEST(Protocol, ControlVerbsParseBack) {
  EXPECT_EQ(parse_request(status_line()).type, RequestType::status);
  EXPECT_EQ(parse_request(shutdown_line()).type, RequestType::shutdown);
  const Request cancel = parse_request(cancel_line(42));
  EXPECT_EQ(cancel.type, RequestType::cancel);
  EXPECT_EQ(cancel.job, 42u);
  const Request results = parse_request(results_line(7));
  EXPECT_EQ(results.type, RequestType::results);
  EXPECT_EQ(results.job, 7u);
}

TEST(Protocol, MalformedRequestsThrowStructuredErrors) {
  EXPECT_THROW(parse_request("not json"), std::runtime_error);
  EXPECT_THROW(parse_request("{}"), std::runtime_error);
  EXPECT_THROW(parse_request(R"({"type":"frobnicate"})"), std::runtime_error);
  EXPECT_THROW(parse_request(R"({"type":"submit","spec":{}})"),
               std::runtime_error);  // missing client
  EXPECT_THROW(parse_request(R"({"type":"cancel","job":-1})"),
               std::runtime_error);
  EXPECT_THROW(parse_request(R"({"type":"cancel","job":1.5})"),
               std::runtime_error);
  EXPECT_THROW(
      parse_request(
          R"({"type":"submit","client":"a","spec":{"mystery":1}})"),
      std::runtime_error);  // unknown spec key
  EXPECT_THROW(
      parse_request(
          R"({"type":"submit","client":"a","spec":{"axes":{"bogus":[1]}}})"),
      std::runtime_error);  // unknown axis
  EXPECT_THROW(
      parse_request(
          R"({"type":"submit","client":"a","spec":{"axes":{"np":[]}}})"),
      std::runtime_error);  // empty axis
  // Integers out of their destination's range are rejected, never wrapped
  // (4294967306 = 2^32 + 10, 4294967314 = 2^32 + 18) and never converted
  // with undefined behaviour (|v| >= 2^63).
  EXPECT_THROW(
      parse_request(
          R"({"type":"submit","client":"a","spec":{"steps":4294967306}})"),
      std::runtime_error);
  EXPECT_THROW(
      parse_request(
          R"({"type":"submit","client":"a",)"
          R"("spec":{"axes":{"np":[4294967314]}}})"),
      std::runtime_error);
  EXPECT_THROW(
      parse_request(
          R"({"type":"submit","client":"a","priority":-2147483649,"spec":{}})"),
      std::runtime_error);
  EXPECT_THROW(
      parse_request(
          R"({"type":"submit","client":"a","spec":{"texec_ns":1e19}})"),
      std::runtime_error);
  EXPECT_THROW(
      parse_request(
          R"({"type":"submit","client":"a",)"
          R"("spec":{"axes":{"msg_bytes":[-1e300]}}})"),
      std::runtime_error);
  EXPECT_THROW(parse_request(R"({"type":"cancel","job":9223372036854775808})"),
               std::runtime_error);
  try {
    (void)parse_request(
        R"({"type":"submit","client":"a","spec":{"steps":4294967306}})");
    FAIL() << "out-of-range steps must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("\"steps\" is out of range"),
              std::string::npos)
        << e.what();
  }
}

TEST(Protocol, IntegersAtTheirTypeBoundsParse) {
  const Request req = parse_request(
      R"({"type":"submit","client":"a","priority":-2147483648,)"
      R"("spec":{"steps":2147483647,)"
      R"("axes":{"msg_bytes":[9007199254740992]}}})");
  EXPECT_EQ(req.priority, -2147483648LL);
  EXPECT_EQ(req.spec.steps, 2147483647);
  ASSERT_EQ(req.spec.msg_bytes.size(), 1u);
  EXPECT_EQ(req.spec.msg_bytes[0], std::int64_t{1} << 53);
}

// A line of 100,000 '[' is ~100 KB, well under the daemon's line cap; the
// recursive reader must reject it at its nesting bound instead of
// overflowing the stack.
TEST(Protocol, DeeplyNestedRequestIsRejectedNotRecursedInto) {
  const std::string nested =
      R"({"type":"submit","spec":)" + std::string(100'000, '[');
  try {
    (void)parse_request(nested);
    FAIL() << "deeply nested request must be rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nesting deeper than"), std::string::npos) << what;
    EXPECT_NE(what.find("at byte"), std::string::npos) << what;
  }

  // Exactly kMaxDepth levels still parse; one more is rejected.
  const auto brackets = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW((void)json::parse(brackets(json::kMaxDepth)));
  EXPECT_THROW((void)json::parse(brackets(json::kMaxDepth + 1)),
               std::runtime_error);
}

TEST(Protocol, MissingSpecKeysKeepDefaults) {
  const Request req = parse_request(
      R"({"type":"submit","client":"a","spec":{"steps":3}})");
  const sweep::SweepSpec defaults;
  EXPECT_EQ(req.spec.steps, 3);
  EXPECT_EQ(req.spec.texec.ns(), defaults.texec.ns());
  EXPECT_EQ(req.spec.campaign_seed, defaults.campaign_seed);
  EXPECT_EQ(req.spec.delay_ms, defaults.delay_ms);
}

TEST(Protocol, RecordAndControlLinesAreDisjoint) {
  sweep::SweepRecord rec;
  rec.index = 3;
  EXPECT_TRUE(is_record_line(sweep::record_json_line(rec)));
  EXPECT_FALSE(is_record_line(error_response("x", "y")));
  EXPECT_FALSE(is_record_line(accepted_response(1, 2, 3)));
  EXPECT_FALSE(is_record_line(done_response(1, 2, 3, 4)));
  EXPECT_FALSE(is_record_line(cancelled_response(1, 2)));
  EXPECT_FALSE(is_record_line(results_response(1, 2)));
  EXPECT_FALSE(is_record_line(cancel_ack_response(1, true)));
  EXPECT_FALSE(is_record_line(bye_response()));
  EXPECT_FALSE(is_record_line(status_line()));
}

TEST(Protocol, ResponsesCarryTheirFields) {
  const json::Value err = json::parse(error_response("admission-points", "m"));
  EXPECT_EQ(err.find("type")->text, "error");
  EXPECT_EQ(err.find("code")->text, "admission-points");
  EXPECT_EQ(err.find("message")->text, "m");
  const json::Value acc = json::parse(accepted_response(9, 12, 5));
  EXPECT_EQ(acc.find("job")->number, 9.0);
  EXPECT_EQ(acc.find("points")->number, 12.0);
  EXPECT_EQ(acc.find("cached")->number, 5.0);
  const json::Value done = json::parse(done_response(9, 12, 5, 7));
  EXPECT_EQ(done.find("records")->number, 12.0);
  EXPECT_EQ(done.find("cache_hits")->number, 5.0);
  EXPECT_EQ(done.find("computed")->number, 7.0);
}

}  // namespace
}  // namespace iw::service

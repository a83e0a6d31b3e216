// The shared telemetry JSON writer and reader (json_lite.hpp), and the
// three schema validators built on the reader (trace_event, timeseries,
// flight recorder). The table test pins every rejection the validators
// make: one malformed document per distinct check, each built from a valid
// base document by a single textual edit.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "telemetry/flight.hpp"
#include "telemetry/json_lite.hpp"
#include "telemetry/series.hpp"
#include "telemetry/trace_export.hpp"

namespace dgiwarp {
namespace {

constexpr const char* kTrace =
    R"({"traceEvents": [{"ph": "B", "ts": 1.0, "pid": 1, "tid": 1, )"
    R"("name": "x", "args": {"a": [1, true, null]}}, {"ph": "E", )"
    R"("ts": 2.0, "pid": 1, "tid": 1, "name": "x"}], "displayTimeUnit": "ns"})";

constexpr const char* kSeries =
    R"({"schema": "dgiwarp.timeseries.v1", "runs": {"r": {"interval_ns": 100, )"
    R"("samples": 2, "series": {"s": {"kind": "probe", "recorded": 2, )"
    R"("dropped": 0, "points": [[0,1.5],[100,2]]}}}}})";

constexpr const char* kFlight =
    R"({"schema": "dgiwarp.flight.v2", "reason": "r", "trips": [{"t": 1, )"
    R"("rule": "stuck_queue", "target": "q"}], "series": {"interval_ns": 100, )"
    R"("series": {"s": {"kind": "probe", "points": [[0,1]]}}}, )"
    R"("metrics": {"virtual_time_ns": 5, "counters": {"c": 1}, )"
    R"("trace": {"recorded": 2, "events": [{"t": 1, "kind": "link_drop", )"
    R"("a": 0}, {"t": 1, "kind": "cc_cnp"}]}, "gauges": {}}})";

using Validator = Status (*)(std::string_view);

struct Case {
  Validator validate;
  const char* base;
  const char* find;  // first occurrence replaced by `with`; "" = whole doc
  const char* with;
  const char* why;   // substring of the rejection message
};

constexpr Validator kT = telemetry::validate_trace_event_json;
constexpr Validator kS = telemetry::validate_timeseries_json;
constexpr Validator kF = telemetry::validate_flight_recorder_json;

const Case kCases[] = {
    // ---- trace_event ----
    {kT, kTrace, "", "nope", "expected '{'"},
    {kT, kTrace, R"({"traceEvents")", R"({traceEvents)", R"(expected '"')"},
    {kT, kTrace, R"("traceEvents":)", R"("traceEvents")", "expected ':'"},
    {kT, kTrace, R"("traceEvents": [)", R"("traceEvents": 3, "x": [)",
     "expected '['"},
    {kT, kTrace, R"([{"ph": "B")", R"([3, {"ph": "B")", "expected '{'"},
    {kT, kTrace, R"("ph": "B")", R"("ph": 1)", R"(expected '"')"},
    {kT, kTrace, R"("ts": 1.0)", R"("ts": "1")", "expected number"},
    {kT, kTrace, R"("pid": 1)", R"("pid": x)", "expected number"},
    {kT, kTrace, R"("tid": 1)", R"("tid": x)", "expected number"},
    {kT, kTrace, R"("name": "x")", R"("name": 7)", R"(expected '"')"},
    {kT, kTrace, "[1, true, null]", "[1, tru, null]", "expected number"},
    {kT, kTrace, R"("name": "x"}])", R"("name": "x"])", "expected '}'"},
    {kT, kTrace, R"(}], "displayTimeUnit")", R"(} "displayTimeUnit")",
     "expected ']'"},
    {kT, kTrace, R"("displayTimeUnit": "ns")", R"("displayTimeUnit": ns)",
     "expected number"},
    {kT, kTrace, R"("ns"})", R"("ns"])", "expected '}'"},
    {kT, kTrace, R"("ns"})", R"("ns"} {})", "trailing garbage"},
    {kT, kTrace, "", R"({"displayTimeUnit": "ns"})", "no traceEvents array"},
    {kT, kTrace, R"("ts": 1.0, )", "", "missing ph/ts/pid/tid"},
    {kT, kTrace, R"("ts": 2.0)", R"("ts": 0.5)", "ts not monotonic"},
    {kT, kTrace, R"("ph": "B")", R"("ph": "i")", "E without open B"},
    {kT, kTrace, R"("name": "x"}])", R"("name": "y"}])",
     "mismatched B/E name"},
    {kT, kTrace, R"("ph": "E")", R"("ph": "i")", "unclosed B event"},
    // Reader-level failures, reached through the trace validator.
    {kT, kTrace, "", R"({"traceEvents)", "unterminated string"},
    {kT, kTrace, R"("displayTimeUnit")", R"("display\qTimeUnit")",
     "bad escape"},
    {kT, kTrace, "", R"({"traceEvents\)", "truncated escape"},
    {kT, kTrace, "", R"({"\u00)", R"(truncated \u escape)"},
    {kT, kTrace, "", R"({"x": )", "unexpected end"},

    // ---- timeseries ----
    {kS, kSeries, "", "[]", "expected '{'"},
    {kS, kSeries, R"({"schema")", R"({schema)", R"(expected '"')"},
    {kS, kSeries, R"("schema":)", R"("schema")", "expected ':'"},
    {kS, kSeries, R"("schema": "dgiwarp.timeseries.v1")", R"("schema": 1)",
     R"(expected '"')"},
    {kS, kSeries, "timeseries.v1", "timeseries.v9", "wrong schema"},
    {kS, kSeries, R"("runs": {"r")", R"("runs": ["r")", "expected '{'"},
    {kS, kSeries, R"({"r": {)", R"({r: {)", R"(expected '"')"},
    {kS, kSeries, R"("r": {"interval_ns")", R"("r": ["interval_ns")",
     "expected '{'"},
    {kS, kSeries, R"({"interval_ns")", R"({interval_ns)", R"(expected '"')"},
    {kS, kSeries, R"("interval_ns": 100)", R"("interval_ns": "100")",
     "expected number"},
    {kS, kSeries, R"("interval_ns": 100)", R"("interval_ns": 0)",
     "interval_ns must be positive"},
    {kS, kSeries, R"("series": {"s")", R"("series": ["s")", "expected '{'"},
    {kS, kSeries, R"({"s": {)", R"({s: {)", R"(expected '"')"},
    {kS, kSeries, R"("s": {"kind")", R"("s": ["kind")", "expected '{'"},
    {kS, kSeries, R"({"kind")", R"({kind)", R"(expected '"')"},
    {kS, kSeries, R"("kind": "probe")", R"("kind": 1)", R"(expected '"')"},
    {kS, kSeries, R"("probe")", R"("histogram")", "unknown series kind"},
    {kS, kSeries, R"("probe")", R"("gauge")", "unknown series kind"},
    {kS, kSeries, R"("recorded": 2)", R"("recorded": "2")", "expected number"},
    {kS, kSeries, R"("dropped": 0)", R"("dropped": x)", "expected number"},
    {kS, kSeries, R"("points": [[)", R"("points": {[)", "expected '['"},
    {kS, kSeries, "[0,1.5]", "[0]", "expected ','"},
    {kS, kSeries, "[100,2]", "[0,2]",
     "point timestamps not strictly increasing"},
    {kS, kSeries, "[100,2]]", "[100,2]", "expected ']'"},
    {kS, kSeries, R"("dropped": 0,)", R"("dropped": 0, "unit": ,)",
     "expected number"},
    {kS, kSeries, "[100,2]]}", "[100,2]]]", "expected '}'"},
    {kS, kSeries, R"("kind")", R"("kynd")", "series missing kind"},
    {kS, kSeries, R"("points")", R"("pointz")", "series missing points"},
    {kS, kSeries, "[100,2]]}}", "[100,2]]}]", "expected '}'"},
    {kS, kSeries, R"("samples": 2)", R"("samples": x)", "expected number"},
    {kS, kSeries, "[100,2]]}}}", "[100,2]]}}]", "expected '}'"},
    {kS, kSeries, R"("interval_ns")", R"("interval_us")",
     "run missing interval_ns"},
    {kS, kSeries, R"("series")", R"("seriez")", "run missing series"},
    {kS, kSeries, "[100,2]]}}}}", "[100,2]]}}}]", "expected '}'"},
    {kS, kSeries, R"({"schema")", R"({"x": tru, "schema")", "expected number"},
    {kS, kSeries, "[100,2]]}}}}}", "[100,2]]}}}}]", "expected '}'"},
    {kS, kSeries, "[100,2]]}}}}}", "[100,2]]}}}}} x", "trailing garbage"},
    {kS, kSeries, R"("schema")", R"("schemz")", "missing schema"},
    {kS, kSeries, R"("runs")", R"("runz")", "missing runs"},

    // ---- flight recorder ----
    {kF, kFlight, "", "nope", "expected '{'"},
    {kF, kFlight, R"({"schema")", R"({schema)", R"(expected '"')"},
    {kF, kFlight, R"("schema":)", R"("schema")", "expected ':'"},
    {kF, kFlight, R"("schema": "dgiwarp.flight.v2")", R"("schema": 1)",
     R"(expected '"')"},
    {kF, kFlight, "flight.v2", "flight.v1", "wrong schema"},
    {kF, kFlight, R"("reason": "r")", R"("reason": 1)", R"(expected '"')"},
    {kF, kFlight, R"("reason": "r")", R"("reason": "")", "empty reason"},
    {kF, kFlight, R"("trips": [)", R"("trips": {)", "expected '['"},
    {kF, kFlight, R"([{"t": 1, "rule")", R"([1, {"t": 1, "rule")",
     "expected '{'"},
    {kF, kFlight, R"({"t": 1, "rule")", R"({t: 1, "rule")", R"(expected '"')"},
    {kF, kFlight, R"("rule": "stuck_queue")", R"("rule": 0)",
     R"(expected '"')"},
    {kF, kFlight, R"("target": "q")", R"("target": q)", "expected number"},
    {kF, kFlight, R"("target": "q"}])", R"("target": "q"])", "expected '}'"},
    {kF, kFlight, R"("rule")", R"("rulz")", "trip missing rule"},
    {kF, kFlight, R"("target": "q"}])", R"("target": "q"}})", "expected ']'"},
    // The series member goes through the timeseries run check, whose every
    // rejection the timeseries rows above pin.
    {kF, kFlight, R"("series": {"interval_ns")", R"("series": ["interval_ns")",
     "expected '{'"},
    {kF, kFlight, R"("interval_ns": 100)", R"("interval_ns": 0)",
     "interval_ns must be positive"},
    {kF, kFlight, R"("interval_ns")", R"("interval_us")",
     "run missing interval_ns"},
    {kF, kFlight, R"("metrics": {)", R"("metrics": [)", "expected '{'"},
    {kF, kFlight, R"({"virtual_time_ns")", R"({virtual_time_ns)",
     R"(expected '"')"},
    {kF, kFlight, R"("virtual_time_ns": 5)", R"("virtual_time_ns": x)",
     "expected number"},
    {kF, kFlight, R"("counters": {"c": 1})", R"("counters": {"c": })",
     "expected number"},
    {kF, kFlight, R"("trace": {)", R"("trace": [)", "expected '{'"},
    {kF, kFlight, R"({"recorded")", R"({recorded)", R"(expected '"')"},
    {kF, kFlight, R"("recorded": 2)", R"("recorded": x)", "expected number"},
    {kF, kFlight, R"("events": [)", R"("events": {)", "expected '['"},
    {kF, kFlight, R"("events": [{)", R"("events": [1, {)", "expected '{'"},
    {kF, kFlight, R"({"t": 1, "kind": "link_drop")",
     R"({t: 1, "kind": "link_drop")", R"(expected '"')"},
    {kF, kFlight, R"({"t": 1, "kind": "link_drop")",
     R"({"t": "1", "kind": "link_drop")", "expected number"},
    {kF, kFlight, R"("a": 0)", R"("a": x)", "expected number"},
    {kF, kFlight, R"("cc_cnp"})", R"("cc_cnp"])", "expected '}'"},
    {kF, kFlight, R"({"t": 1, "kind": "cc_cnp")", R"({"kind": "cc_cnp")",
     "trace event missing t"},
    {kF, kFlight, R"({"t": 1, "kind": "cc_cnp")", R"({"t": 0, "kind": "cc_cnp")",
     "trace events not time-ordered"},
    {kF, kFlight, R"("cc_cnp"}]})", R"("cc_cnp"}}})", "expected ']'"},
    {kF, kFlight, R"("cc_cnp"}]})", R"("cc_cnp"}]])", "expected '}'"},
    {kF, kFlight, R"("gauges": {}}})", R"("gauges": {}]})", "expected '}'"},
    {kF, kFlight, R"("gauges": {}}})", R"("gauges": {}}])", "expected '}'"},
    {kF, kFlight, R"("gauges": {}}})", R"("gauges": {}}}})",
     "trailing garbage"},
    {kF, kFlight, R"("counters")", R"("countrs")", "metrics missing counters"},
    {kF, kFlight, R"("schema")", R"("schemz")", "missing schema"},
    {kF, kFlight, R"("reason")", R"("reazon")", "missing reason"},
    {kF, kFlight, R"("trips")", R"("tripz")", "missing trips"},
    {kF, kFlight, R"("metrics")", R"("metricz")", "missing metrics"},
};

TEST(JsonValidators, RejectEveryMalformedDocument) {
  EXPECT_TRUE(kT(kTrace).ok());
  EXPECT_TRUE(kS(kSeries).ok());
  EXPECT_TRUE(kF(kFlight).ok());
  for (const Case& c : kCases) {
    std::string doc = c.with;
    if (*c.find) {
      doc = c.base;
      const std::size_t at = doc.find(c.find);
      ASSERT_NE(at, std::string::npos) << c.find;
      doc.replace(at, std::string_view(c.find).size(), c.with);
    }
    const Status s = c.validate(doc);
    EXPECT_FALSE(s.ok()) << doc;
    EXPECT_NE(s.message().find(c.why), std::string::npos)
        << "want '" << c.why << "', got '" << s.message() << "' for " << doc;
  }
}

TEST(JsonLite, WriterFormatsExactly) {
  std::string out;
  telemetry::append_u64(out, 18446744073709551615ull);
  out += ' ';
  telemetry::append_double(out, 0.1);
  out += ' ';
  telemetry::append_escaped(out, "q\"b\\n\nt\tc\x01");
  EXPECT_EQ(out,
            R"(18446744073709551615 0.10000000000000001 q\"b\\n\nt\tc\u0001)");
  EXPECT_FALSE(telemetry::write_file("/nonexistent-dir/x.json", out).ok());
}

// RFC 8259: control characters inside a string must be escaped. A raw tab
// or newline in a document is a writer bug the reader has to catch.
TEST(JsonLite, ReaderRejectsRawControlCharacters) {
  for (const char* raw : {"a\tb", "a\nb", "a\x01b"}) {
    std::string doc = kFlight;
    doc.replace(doc.find(R"("r")"), 3, std::string("\"") + raw + "\"");
    const Status s = telemetry::validate_flight_recorder_json(doc);
    EXPECT_FALSE(s.ok()) << raw;
    EXPECT_NE(s.message().find("raw control character"), std::string::npos)
        << s.message();
  }
}

}  // namespace
}  // namespace dgiwarp

// Tests for sample serialization.
#include <gtest/gtest.h>

#include <sstream>

#include "sampler/io.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace fbedge {
namespace {

// ---------------------------------------------------------------------------
// Sample serialization.
// ---------------------------------------------------------------------------

SessionSample example_sample() {
  SessionSample s;
  s.id = SessionId{123456789ull};
  s.pop = PopId{7};
  s.client.ip = 0x0a0102ff;
  s.client.bgp_prefix = {0x0a010000, 17};
  s.client.asn = Asn{64512};
  s.client.country = CountryId{301};
  s.client.continent = Continent::kSouthAmerica;
  s.client.hosting_provider = true;
  s.version = HttpVersion::kHttp2;
  s.endpoint = EndpointClass::kMedia;
  s.established_at = 12345.625;
  s.duration = 78.5;
  s.busy_time = 3.25;
  s.total_bytes = 987654;
  s.route_index = 2;
  s.min_rtt = 0.0425;
  s.num_transactions = 2;
  ResponseWrite w1;
  w1.first_byte_nic = 0.5;
  w1.last_byte_nic = 0.51;
  w1.second_last_ack = 0.58;
  w1.last_ack = 0.6;
  w1.bytes = 20000;
  w1.last_packet_bytes = 1280;
  w1.wnic = 14400;
  w1.multiplexed = true;
  s.writes.push_back(w1);
  ResponseWrite w2 = w1;
  w2.preempted = true;
  w2.multiplexed = false;
  s.writes.push_back(w2);
  return s;
}

TEST(SampleIo, RoundTripsEveryField) {
  const SessionSample original = example_sample();
  const auto parsed = parse_sample(serialize_sample(original));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->id, original.id);
  EXPECT_EQ(parsed->pop, original.pop);
  EXPECT_EQ(parsed->client.ip, original.client.ip);
  EXPECT_EQ(parsed->client.bgp_prefix, original.client.bgp_prefix);
  EXPECT_EQ(parsed->client.asn, original.client.asn);
  EXPECT_EQ(parsed->client.country, original.client.country);
  EXPECT_EQ(parsed->client.continent, original.client.continent);
  EXPECT_EQ(parsed->client.hosting_provider, original.client.hosting_provider);
  EXPECT_EQ(parsed->version, original.version);
  EXPECT_EQ(parsed->endpoint, original.endpoint);
  EXPECT_DOUBLE_EQ(parsed->established_at, original.established_at);
  EXPECT_DOUBLE_EQ(parsed->duration, original.duration);
  EXPECT_DOUBLE_EQ(parsed->busy_time, original.busy_time);
  EXPECT_EQ(parsed->total_bytes, original.total_bytes);
  EXPECT_EQ(parsed->route_index, original.route_index);
  EXPECT_DOUBLE_EQ(parsed->min_rtt, original.min_rtt);
  EXPECT_EQ(parsed->num_transactions, original.num_transactions);
  ASSERT_EQ(parsed->writes.size(), 2u);
  EXPECT_EQ(parsed->writes[0].bytes, 20000);
  EXPECT_TRUE(parsed->writes[0].multiplexed);
  EXPECT_TRUE(parsed->writes[1].preempted);
}

TEST(SampleIo, RejectsMalformedLines) {
  EXPECT_FALSE(parse_sample("").has_value());
  EXPECT_FALSE(parse_sample("1\t2\t3").has_value());
  auto line = serialize_sample(example_sample());
  line += "\textra";  // breaks the per-write field arithmetic
  EXPECT_FALSE(parse_sample(line).has_value());
  // Non-numeric garbage in a numeric field.
  auto bad = serialize_sample(example_sample());
  bad.replace(0, 3, "abc");
  EXPECT_FALSE(parse_sample(bad).has_value());
}

TEST(SampleIo, StreamRoundTripWithGeneratedTraffic) {
  const World world = build_world({.seed = 31, .groups_per_continent = 1});
  DatasetConfig dc;
  dc.seed = 31;
  dc.days = 1;
  dc.session_scale = 0.02;
  DatasetGenerator generator(world, dc);
  std::vector<SessionSample> samples;
  generator.generate_group(world.groups[0],
                           [&](const SessionSample& s) { samples.push_back(s); });
  ASSERT_GT(samples.size(), 50u);

  std::stringstream stream;
  write_samples(stream, samples);
  const auto result = read_samples(stream);
  EXPECT_EQ(result.malformed, 0);
  ASSERT_EQ(result.samples.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(result.samples[i].id, samples[i].id);
    EXPECT_DOUBLE_EQ(result.samples[i].min_rtt, samples[i].min_rtt);
    EXPECT_EQ(result.samples[i].writes.size(), samples[i].writes.size());
  }
}

TEST(SampleIo, SkipsMalformedLinesInStream) {
  std::stringstream stream;
  stream << serialize_sample(example_sample()) << "\n";
  stream << "garbage line\n";
  stream << serialize_sample(example_sample()) << "\n";
  const auto result = read_samples(stream);
  EXPECT_EQ(result.samples.size(), 2u);
  EXPECT_EQ(result.malformed, 1);
}

}  // namespace
}  // namespace fbedge

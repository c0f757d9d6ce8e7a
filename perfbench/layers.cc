#include "layers.h"

#include <numeric>

#include "core/pipeline.h"
#include "core/todam.h"
#include "ml/model_factory.h"
#include "net/wire.h"
#include "store/coding.h"

namespace perfbench {

using staq::core::AccessQueryResult;

void LayerSamples::Merge(const LayerSamples& other) {
  auto append = [](std::vector<double>* to, const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  append(&todam_ms, other.todam_ms);
  append(&gravity_trips, other.gravity_trips);
  append(&label_zone_us, other.label_zone_us);
  append(&finalize_us, other.finalize_us);
  label_s += other.label_s;
  spqs += other.spqs;
  expansions += other.expansions;
  labeled_requests += other.labeled_requests;
  append(&features_ms, other.features_ms);
  append(&ssr_label_ms, other.ssr_label_ms);
  append(&ssr_spqs, other.ssr_spqs);
  for (const auto& [model, values] : other.train_ms) {
    append(&train_ms[model], values);
  }
}

namespace {

/// The request's edit-stable TODAM, built exactly as the server builds it.
staq::core::Todam BuildTodam(const staq::serve::Scenario& scenario,
                             const staq::serve::AqRequest& request,
                             const std::vector<staq::synth::Poi>& pois,
                             Tracer* tracer, uint64_t request_id,
                             LayerSamples* samples) {
  Span span(tracer, "core.todam", request_id);
  const auto start = Clock::now();
  const staq::synth::City& city = scenario.base_city();
  std::vector<double> zone_norm = staq::core::StableGravityNorms(
      city.zones, city.PoisOf(request.category),
      request.options.gravity.decay_scale_m);
  staq::core::TodamBuilder builder(city.zones, pois, scenario.interval(),
                                   request.options.gravity);
  staq::core::Todam todam =
      builder.BuildGravityStable(request.options.seed, zone_norm);
  samples->todam_ms.push_back(MsBetween(start, Clock::now()));
  samples->gravity_trips.push_back(static_cast<double>(todam.num_trips()));
  return todam;
}

void Finalize(const staq::serve::Scenario& scenario, Tracer* tracer,
              uint64_t request_id, AccessQueryResult* result,
              LayerSamples* samples) {
  Span span(tracer, "core.finalize", request_id);
  const auto start = Clock::now();
  staq::core::FinalizeAccessQueryResult(scenario.base_city().zones, result);
  samples->finalize_us.push_back(MsBetween(start, Clock::now()) * 1e3);
}

}  // namespace

AccessQueryResult DecomposeExact(const staq::serve::Scenario& scenario,
                                 const staq::serve::AqRequest& request,
                                 RoutingContext* context, Tracer* tracer,
                                 uint64_t request_id, LayerSamples* samples) {
  Span root(tracer, "bench.exact_request", request_id);
  const staq::serve::LabelKey key = staq::serve::LabelKeyFor(request);
  std::vector<staq::synth::Poi> pois = scenario.PoisOf(request.category);
  staq::core::Todam todam =
      BuildTodam(scenario, request, pois, tracer, request_id, samples);

  staq::core::LabelingEngine& engine = context->engine;
  engine.set_gac_weights(key.gac);
  const uint64_t spqs_before = engine.spq_count();
  const uint64_t expansions_before = engine.expansion_count();
  const size_t num_zones = scenario.base_city().zones.size();
  AccessQueryResult result;
  result.mac.resize(num_zones);
  result.acsd.resize(num_zones);
  {
    Span label_span(tracer, "core.label", request_id);
    const auto label_start = Clock::now();
    for (uint32_t z = 0; z < num_zones; ++z) {
      Span zone_span(tracer, "core.label_zone", request_id);
      const auto start = Clock::now();
      staq::core::ZoneLabel label =
          engine.LabelZone(todam, z, pois, key.cost, scenario.interval().day);
      samples->label_zone_us.push_back(MsBetween(start, Clock::now()) * 1e3);
      result.mac[z] = label.mac;
      result.acsd[z] = label.acsd;
    }
    samples->label_s += SecondsSince(label_start);
  }
  result.spqs = engine.spq_count() - spqs_before;
  samples->spqs += result.spqs;
  samples->expansions += engine.expansion_count() - expansions_before;
  ++samples->labeled_requests;
  result.gravity_trips = todam.num_trips();
  Finalize(scenario, tracer, request_id, &result, samples);
  return result;
}

staq::util::Result<AccessQueryResult> DecomposeSsr(
    const staq::serve::Scenario& scenario,
    const staq::serve::AqRequest& request, RoutingContext* context,
    Tracer* tracer, uint64_t request_id, LayerSamples* samples) {
  Span root(tracer, "bench.ssr_request", request_id);
  std::vector<staq::synth::Poi> pois = scenario.PoisOf(request.category);
  staq::core::Todam todam =
      BuildTodam(scenario, request, pois, tracer, request_id, samples);

  staq::core::PipelineConfig config;
  config.beta = request.options.beta;
  config.model = request.options.model;
  config.cost = request.options.cost;
  config.gac = request.options.gac;
  config.seed = request.options.seed;
  AccessQueryResult result;
  result.gravity_trips = todam.num_trips();
  {
    Span span(tracer, "core.run_ssr", request_id);
    auto run = staq::core::RunSsr(scenario.base_city(),
                                  *scenario.offline().features,
                                  &context->router, pois, todam,
                                  scenario.interval().day, config);
    if (!run.ok()) return run.status();
    const staq::core::StageTimings& timings = run.value().timings;
    samples->features_ms.push_back(timings.features_s * 1e3);
    samples->ssr_label_ms.push_back(timings.labeling_s * 1e3);
    samples->ssr_spqs.push_back(static_cast<double>(run.value().spqs));
    samples->train_ms[staq::ml::ModelKindName(config.model)].push_back(
        timings.training_s * 1e3);
    result.mac = std::move(run.value().mac);
    result.acsd = std::move(run.value().acsd);
    result.spqs = run.value().spqs;
  }
  Finalize(scenario, tracer, request_id, &result, samples);
  return result;
}

void ReportLayerSamples(const LayerSamples& samples, Result* result) {
  if (!samples.todam_ms.empty()) {
    result->Metric("core.todam_ms", Median(samples.todam_ms), "ms");
    result->Metric("core.gravity_trips", Mean(samples.gravity_trips), "count");
  }
  if (!samples.label_zone_us.empty()) {
    result->Metric("core.label_zone_us_p50",
                   Quantile(samples.label_zone_us, 0.5), "us");
    result->Metric("core.label_zone_us_p99",
                   Quantile(samples.label_zone_us, 0.99), "us");
    result->Samples("core.label_zone_us_p99", samples.label_zone_us.size(),
                    0.99);
    const double requests = static_cast<double>(samples.labeled_requests);
    result->Metric("router.spqs", samples.spqs / requests, "count");
    result->Metric("router.expansions", samples.expansions / requests, "count");
    result->Metric("router.spqs_per_s", samples.spqs / samples.label_s, "1/s");
  }
  if (!samples.finalize_us.empty()) {
    result->Metric("core.finalize_us", Median(samples.finalize_us), "us");
  }
  if (!samples.features_ms.empty()) {
    result->Metric("core.features_ms", Median(samples.features_ms), "ms");
    result->Metric("core.ssr_label_ms", Median(samples.ssr_label_ms), "ms");
    result->Metric("core.ssr_spqs", Mean(samples.ssr_spqs), "count");
  }
  const std::pair<const char*, const char*> models[] = {
      {"OLS", "ml.train_ms.ols"},
      {"MLP", "ml.train_ms.mlp"},
      {"COREG", "ml.train_ms.coreg"},
      {"MT", "ml.train_ms.mt"}};
  for (const auto& [model, name] : models) {
    auto it = samples.train_ms.find(model);
    if (it != samples.train_ms.end()) {
      result->Metric(name, Median(it->second), "ms");
    }
  }
}

void ReportSetupLayers(const staq::serve::AqServer& server,
                       double build_city_s, Result* result) {
  result->Metric("synth.build_city_s", build_city_s, "s");
  const auto& connections = server.router_options().connections;
  if (connections != nullptr) {
    result->Metric("router.connections_build_s", connections->build_seconds(),
                   "s");
    result->Metric("router.connections",
                   static_cast<double>(connections->num_connections()),
                   "count");
  }
  auto snapshot = server.Snapshot();
  const auto start = Clock::now();
  staq::serve::OfflineState offline(snapshot->base_city(),
                                    snapshot->interval());
  result->Metric("core.offline_s", SecondsSince(start), "s");
}

void ReportWireCodec(const std::vector<staq::serve::AqRequest>& requests,
                     const std::vector<AccessQueryResult>& answers,
                     Result* result) {
  std::vector<double> query_bytes, result_bytes, encode_us, decode_us;
  std::vector<uint8_t> payload;
  for (const auto& request : requests) {
    staq::net::QueryMsg msg;
    msg.request = request;
    payload.clear();
    const auto start = Clock::now();
    staq::net::EncodeQueryMsg(msg, &payload);
    encode_us.push_back(MsBetween(start, Clock::now()) * 1e3);
    query_bytes.push_back(static_cast<double>(payload.size()));
    staq::store::ByteReader reader(payload.data(), payload.size());
    staq::net::QueryMsg decoded;
    const auto decode_start = Clock::now();
    const bool ok = staq::net::DecodeQueryMsg(&reader, &decoded);
    decode_us.push_back(MsBetween(decode_start, Clock::now()) * 1e3);
    if (!ok) result->Mismatch("wire: query message failed to decode");
  }
  for (const auto& answer : answers) {
    staq::net::QueryResultMsg msg;
    msg.result = answer;
    payload.clear();
    const auto start = Clock::now();
    staq::net::EncodeQueryResultMsg(msg, &payload);
    encode_us.push_back(MsBetween(start, Clock::now()) * 1e3);
    result_bytes.push_back(static_cast<double>(payload.size()));
    staq::store::ByteReader reader(payload.data(), payload.size());
    staq::net::QueryResultMsg decoded;
    const auto decode_start = Clock::now();
    const bool ok = staq::net::DecodeQueryResultMsg(&reader, &decoded);
    decode_us.push_back(MsBetween(decode_start, Clock::now()) * 1e3);
    std::string why;
    if (!ok || !SameAnswer(decoded.result, answer, Fields::kAll, &why)) {
      result->Mismatch("wire: result message did not round-trip " + why);
    }
  }
  result->Metric("net.query_bytes", Mean(query_bytes), "bytes");
  result->Metric("net.result_bytes", Mean(result_bytes), "bytes");
  result->Metric("net.encode_us", Median(encode_us), "us");
  result->Metric("net.decode_us", Median(decode_us), "us");
}

void ReportServerStats(const staq::serve::ServerStats& before,
                       const staq::serve::ServerStats& after, Result* result) {
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double lookups =
      hits + static_cast<double>(after.cache_misses - before.cache_misses);
  result->Metric("serve.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
                 "fraction");
  result->Metric(
      "serve.state_builds",
      static_cast<double>(after.exact_state_builds - before.exact_state_builds),
      "count");
  result->Metric("serve.shed", static_cast<double>(after.shed - before.shed),
                 "count");
  result->Metric("serve.rejected",
                 static_cast<double>(after.rejected - before.rejected),
                 "count");
}

void ReportQueueWait(const std::vector<double>& client_ms,
                     const std::vector<double>& service_ms, Result* result) {
  std::vector<double> wait_ms(client_ms.size());
  for (size_t i = 0; i < client_ms.size(); ++i) {
    wait_ms[i] = std::max(0.0, client_ms[i] - service_ms[i]);
  }
  result->Metric("serve.queue_wait_ms_p50", Quantile(wait_ms, 0.5), "ms");
  result->Metric("serve.queue_wait_ms_p99", Quantile(wait_ms, 0.99), "ms");
  result->Samples("serve.queue_wait_ms_p99", wait_ms.size(), 0.99);
  result->Metric("serve.service_ms", Median(service_ms), "ms");
}

}  // namespace perfbench

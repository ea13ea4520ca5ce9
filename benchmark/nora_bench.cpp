// nora_bench — end-to-end and per-layer benchmark of the NORA serving
// stack (see README.md next to this file).
//
//   nora_bench --workload=<name> [--seed=1] [--seconds=15] [--trace=0|1]
//              [--out=results.json] [--trace-out=trace.json]
//              [--digests=benchmark/digests.json] [--print-digests]
//   nora_bench --smoke --workload=<name> --spec=BENCHMARK.json --out=...
//              --trace-out=...
//   nora_bench --list
//
// One workload per process. Human-readable results go to stdout; the last
// stdout line is one JSON object {correct, attempted, failed, metrics}
// holding the end-to-end metrics (untraced run) or the per-layer metrics
// (--trace=1). The exit code is nonzero whenever an output is wrong.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>

#include "bench.hpp"
#include "net/json.hpp"
#include "util/cli.hpp"

// ---------------------------------------------------------------------
// Counting allocator (serve.allocs_per_step). Defined in this translation
// unit, so only the nora_bench executable counts; the libraries are
// unchanged.
// ---------------------------------------------------------------------

namespace {
std::atomic<std::int64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace nora::bench {

std::int64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return {};
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text << '\n';
  return static_cast<bool>(f);
}

/// Pinned digests: {"<workload>": {"canary": hex, "seed:<n>": hex}}.
/// The canary (fixed requests) is checked on every run; a seed's digest
/// only when one is pinned for it.
void check_digests(const Workload& w, const RunOptions& opt,
                   const std::string& path, const RunData& run,
                   std::vector<std::string>& errors) {
  const net::JsonParseResult parsed = net::json_parse(read_file(path));
  const net::JsonValue* pins =
      parsed.ok ? parsed.value.find(w.name) : nullptr;
  if (pins == nullptr) {
    errors.push_back("no pinned digests for " + w.name + " in " + path);
    return;
  }
  const auto expect = [&](const std::string& key, std::uint64_t got,
                          bool required) {
    const std::string want = pins->get_string(key, "");
    if (want.empty()) {
      if (required) errors.push_back("no pinned " + key + " digest");
    } else if (want != hex64(got)) {
      errors.push_back(key + " digest " + hex64(got) + " != pinned " + want);
    }
  };
  expect("canary", run.canary, true);
  expect("seed:" + std::to_string(opt.seed), run.digest, false);
}

/// --smoke: the results and trace files parse, and every metric the spec
/// names is present with its unit.
void smoke_checks(const std::string& spec_path, const std::string& out_path,
                  const std::string& trace_path, const Workload& w,
                  std::vector<std::string>& errors) {
  const net::JsonParseResult results = net::json_parse(read_file(out_path));
  if (!results.ok) errors.push_back("results file: " + results.error);
  const net::JsonParseResult trace = net::json_parse(read_file(trace_path));
  if (!trace.ok || trace.value.find("traceEvents") == nullptr) {
    errors.push_back("trace file does not parse: " + trace.error);
  }
  const net::JsonParseResult spec = net::json_parse(read_file(spec_path));
  if (!spec.ok) {
    errors.push_back("spec " + spec_path + ": " + spec.error);
    return;
  }
  bool listed = false;
  if (const net::JsonValue* ws = spec.value.find("workloads")) {
    for (const net::JsonValue& v : ws->as_array()) {
      listed = listed || v.get_string("name", "") == w.name;
    }
  }
  if (!listed) errors.push_back("workload not named in the spec");
  for (const char* group : {"end_to_end", "per_layer"}) {
    const net::JsonValue* want = spec.value.find(group);
    const net::JsonValue* have =
        results.ok ? results.value.find(group) : nullptr;
    if (want == nullptr || have == nullptr) {
      errors.push_back(std::string("missing group ") + group);
      continue;
    }
    for (const net::JsonValue& m : want->as_array()) {
      const std::string name = m.get_string("name", "");
      const net::JsonValue* got = have->find(name);
      if (got == nullptr || !got->find("value") ||
          got->get_string("unit", "") != m.get_string("unit", "")) {
        errors.push_back(std::string(group) + " metric " + name +
                         " missing or with another unit");
      }
    }
  }
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("  %s\n", title);
  for (const Metric& m : ms) {
    std::printf("    %-30s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int run_main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  if (cli.get_flag("list")) {
    cli.check_unknown();
    for (const Workload& w : workloads()) std::printf("%s\n", w.name.c_str());
    return 0;
  }
  RunOptions opt;
  const Workload& w = workload_by_name(cli.get("workload", ""));
  opt.smoke = cli.get_flag("smoke");
  opt.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  opt.seconds = cli.get_double("seconds", opt.smoke ? 1.0 : 15.0);
  opt.trace = opt.smoke || cli.get_int("trace", 0) != 0;
  opt.rate_rps = cli.get_double("rate", 0.0);
  const std::string out_path = cli.get("out", "");
  const std::string trace_path = cli.get("trace-out", "");
  const std::string digests = cli.get("digests", "benchmark/digests.json");
  const std::string spec = cli.get("spec", "BENCHMARK.json");
  const bool print_digests = cli.get_flag("print-digests");
  cli.check_unknown();
  if (opt.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  if (opt.smoke && (out_path.empty() || trace_path.empty())) {
    throw std::invalid_argument("--smoke needs --out and --trace-out");
  }

  Tracer tracer(opt.trace);
  const double origin = now_s();
  RunData run = w.http ? run_http(w, opt, tracer) : run_offline(w, opt, tracer);

  std::int64_t failed = 0;
  for (const Outcome& o : run.outcomes) failed += o.ok ? 0 : 1;
  if (failed > 0) {
    run.errors.push_back(std::to_string(failed) + " of " +
                         std::to_string(run.outcomes.size()) +
                         " requests did not finish");
  }
  for (std::int64_t i = 0; i < w.checked; ++i) {
    run.digest = fnv1a(run.digest, i,
                       run.outcomes[static_cast<std::size_t>(i)].tokens);
  }
  if (print_digests) {
    std::printf("digests %s: \"canary\": \"%s\", \"seed:%llu\": \"%s\"\n",
                w.name.c_str(), hex64(run.canary).c_str(),
                static_cast<unsigned long long>(opt.seed),
                hex64(run.digest).c_str());
  } else {
    check_digests(w, opt, digests, run, run.errors);
  }

  const std::vector<Metric> e2e = end_to_end_metrics(run);
  const std::vector<Metric> layers =
      opt.trace ? per_layer_metrics(run) : std::vector<Metric>{};
  const std::vector<Metric> extra = extra_metrics(run);
  const auto attempted = static_cast<std::int64_t>(run.outcomes.size());
  const double fail_frac =
      static_cast<double>(failed) / static_cast<double>(std::max<std::int64_t>(1, attempted));

  std::printf("nora_bench %s seed %llu, %.0f s measured%s\n", w.name.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? ", traced" : "");
  print_table("end to end", e2e);
  if (opt.trace) print_table("per layer", layers);
  print_table("reported, not gated", extra);
  std::printf("  requests %lld attempted, %lld failed (fail_frac %g)\n",
              static_cast<long long>(attempted), static_cast<long long>(failed),
              fail_frac);
  std::printf("  digest %s, canary %s\n", hex64(run.digest).c_str(),
              hex64(run.canary).c_str());

  if (!out_path.empty()) {
    const StepShape& s = run.shape;
    std::string errors = "[";
    for (std::size_t i = 0; i < run.errors.size(); ++i) {
      errors += (i ? "," : "") + net::json_escape(run.errors[i]);
    }
    errors += "]";
    const std::string results =
        "{\"workload\":" + net::json_escape(w.name) +
        ",\"seed\":" + std::to_string(opt.seed) +
        ",\"seconds\":" + json_number(opt.seconds) +
        ",\"trace\":" + (opt.trace ? "true" : "false") +
        ",\"correct\":" + (run.errors.empty() ? "true" : "false") +
        ",\"attempted\":" + std::to_string(attempted) +
        ",\"failed\":" + std::to_string(failed) +
        ",\"fail_frac\":" + json_number(fail_frac) +
        ",\"digest\":\"" + hex64(run.digest) + "\",\"canary\":\"" +
        hex64(run.canary) + "\",\"end_to_end\":" + metrics_json(e2e) +
        ",\"per_layer\":" + metrics_json(layers) +
        ",\"extra\":" + metrics_json(extra) +
        ",\"replay_step\":{\"decode_rows\":" + std::to_string(s.decode_rows) +
        ",\"decode_ctx\":" + std::to_string(s.decode_ctx) +
        ",\"prefill_segs\":" + std::to_string(s.prefill_segs) +
        ",\"prefill_rows\":" + std::to_string(s.prefill_rows) +
        ",\"prefill_base\":" + std::to_string(s.prefill_base) +
        "},\"errors\":" + errors + "}";
    if (!write_file(out_path, results)) {
      run.errors.push_back("cannot write " + out_path);
    }
  }
  if (opt.trace && !trace_path.empty() &&
      !write_file(trace_path, chrome_trace_json(tracer.spans(), origin))) {
    run.errors.push_back("cannot write " + trace_path);
  }
  if (opt.smoke) smoke_checks(spec, out_path, trace_path, w, run.errors);

  for (const std::string& e : run.errors) {
    std::printf("  ERROR: %s\n", e.c_str());
  }
  const bool correct = run.errors.empty();
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed),
              metrics_json(opt.trace ? layers : e2e).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace nora::bench

int main(int argc, char** argv) {
  try {
    return nora::bench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nora_bench: %s\n", e.what());
    return 2;
  }
}

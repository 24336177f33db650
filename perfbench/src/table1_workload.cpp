// paper-table1: the Table I harness in-process (core::run_table1 over the
// sizes 3/5/10 grid).  The traced run replays the same jobs through the
// public layer calls, with the eq-smt column at sizes 15 and 18 added.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include "core/experiments.hpp"
#include "core/parallel.hpp"
#include "exact/lyapunov_exact.hpp"
#include "exact/modular.hpp"
#include "lyapunov/synthesis.hpp"
#include "model/reduction.hpp"
#include "model/switched_pi.hpp"
#include "obs/metrics.hpp"
#include "service_load.hpp"
#include "smt/validate.hpp"
#include "verify/verify.hpp"
#include "workloads.hpp"

extern char** environ;

namespace spivbench {

namespace {

using spiv::core::Strategy;

constexpr double kBudget = 120.0;  ///< per-stage budget: nothing may time out
const std::vector<std::size_t> kGridSizes = {3, 5, 10};
const std::vector<std::size_t> kEqSmtSizes = {15, 18};
/// The eq-smt column at 15/18 runs mode 0 only: the four cells cost ~125 s
/// of CPU, two of them keep the traced run well inside its time limit.
constexpr std::size_t kEqSmtModes = 1;
/// The exact layer traced beside cold-fill: eq-smt mode 0 at these sizes,
/// and the jobs=1 vs jobs=nproc solve at kSpeedupSize.
const std::vector<std::size_t> kExactProbeSizes = {10, 15, 18};
constexpr std::size_t kSpeedupSize = 15;
constexpr std::size_t kSetupProbes = 25;

double process_cpu_self() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Time the benchmark-family reductions in a fresh process (they are cached
/// per process, so only a new process pays them again).
double setup_probe(const std::string& self_bin) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  std::string arg0 = self_bin, arg1 = "--setup-probe";
  char* argv[] = {arg0.data(), arg1.data(), nullptr};
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, self_bin.c_str(), &actions, nullptr,
                               argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  std::string out;
  char buf[256];
  for (ssize_t n; rc == 0 && (n = ::read(fds[0], buf, sizeof buf)) > 0;)
    out.append(buf, static_cast<std::size_t>(n));
  ::close(fds[0]);
  int status = 0;
  if (rc == 0) ::waitpid(pid, &status, 0);
  if (rc != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0 || out.empty())
    throw std::runtime_error("setup probe failed");
  return std::stod(out);
}

/// One closed-loop mode of the benchmark family.
struct ModeCase {
  std::string model;
  std::size_t size = 0;
  std::size_t mode = 0;
  spiv::numeric::Matrix a;
};

std::vector<ModeCase> mode_cases(const std::vector<std::size_t>& sizes,
                                 std::size_t modes, LayerSamples* layers) {
  std::vector<ModeCase> out;
  for (const auto& bm : spiv::model::benchmark_family()) {
    if (std::find(sizes.begin(), sizes.end(), bm.size) == sizes.end()) continue;
    for (std::size_t mode = 0; mode < std::min(modes, bm.controller.num_modes());
         ++mode) {
      const double t0 = now_s();
      ModeCase mc{bm.name, bm.size, mode,
                  spiv::model::close_loop_single_mode(bm.plant,
                                                      bm.controller.gains[mode])
                      .a};
      if (layers)
        layers->add("model.close_loop_us." + size_tag(bm.size),
                    (now_s() - t0) * 1e6);
      out.push_back(std::move(mc));
    }
  }
  return out;
}

std::string p_digest(const spiv::exact::RatMatrix& p) {
  std::string text;
  for (std::size_t i = 0; i < p.rows(); ++i)
    for (std::size_t j = 0; j < p.cols(); ++j)
      text += p(i, j).to_string() + (j + 1 < p.cols() ? "," : ";");
  return digest(text);
}

/// Outcome of one replayed Table I job (the replay runs without deadlines,
/// so it never times out), aggregated into cells.
struct JobOutcome {
  bool synthesized = false;
  bool valid = false;
  std::string p_digest;  ///< eq-smt at sizes 15/18 only
};

std::string cell_text(int valid, int cases, int synthesized, int timeouts) {
  return std::to_string(valid) + "/" + std::to_string(cases) +
         " synthesized=" + std::to_string(synthesized) +
         " timeouts=" + std::to_string(timeouts);
}

std::string cell_value(const std::vector<JobOutcome>& jobs) {
  int valid = 0, synthesized = 0;
  for (const JobOutcome& j : jobs) {
    valid += j.valid;
    synthesized += j.synthesized;
  }
  return cell_text(valid, static_cast<int>(jobs.size()), synthesized, 0);
}

/// Compare (or record) cells and digests; returns the wrong count.  With
/// `only_got`, the entries of `got` are checked and the rest of the file is
/// not expected.
std::size_t check_reference(const Reference& got, const Options& opt,
                            RunResult& res, bool with_eq_smt,
                            bool only_got = false) {
  const std::string path = opt.reference_dir + "/table1.tsv";
  const std::optional<Reference> ref = read_reference(path);
  if (opt.record_reference) {
    // Merged into the recorded file: an untraced run has no eq-smt 15/18
    // entries, and recording it must not drop them.
    Reference out = ref.value_or(Reference{});
    for (const auto& [k, v] : got) out[k] = v;
    write_reference(path, out,
                    "# spivbench reference: Table I cells (valid/cases) for "
                    "sizes 3/5/10 plus eq-smt at 15/18, and digests of the "
                    "exact eq-smt P at 15/18\n");
    std::printf("# wrote %s (%zu entries)\n", path.c_str(), out.size());
    return 0;
  }
  if (!ref) {
    std::printf("# missing reference %s\n", path.c_str());
    res.reference_missing = true;
    return 0;
  }
  std::size_t wrong = 0;
  for (const auto& [k, v] : *ref) {
    const bool eq_smt_entry = k.rfind("pdigest\t", 0) == 0 ||
                              k == "cell\teq-smt/15" || k == "cell\teq-smt/18";
    if ((eq_smt_entry && !with_eq_smt) || (only_got && !got.count(k)))
      continue;
    const auto it = got.find(k);
    if (it == got.end() || it->second != v) {
      ++wrong;
      std::printf("# WRONG %s: got %s, reference %s\n", k.c_str(),
                  it == got.end() ? "(none)" : it->second.c_str(), v.c_str());
    }
  }
  // An outcome without a reference entry is wrong too, so a reference that
  // lost entries cannot silently switch their check off.
  for (const auto& [k, v] : got)
    if (!ref->count(k)) {
      ++wrong;
      std::printf("# WRONG %s: got %s, no reference entry\n", k.c_str(),
                  v.c_str());
    }
  return wrong;
}

std::string pdigest_key(const ModeCase& mc) {
  return "pdigest\t" + mc.model + "/" + std::to_string(mc.mode);
}

// ------------------------------------------------------------------ replay

/// The vech system of the eq-smt solve for A (A^T P + P A + I = 0).
struct ExactSystem {
  spiv::exact::RatMatrix a, op, b;
};

ExactSystem exact_system(const ModeCase& mc) {
  using namespace spiv::exact;
  ExactSystem sys;
  sys.a = rat_matrix_from_doubles(mc.a.data().data(), mc.a.rows(), mc.a.cols(),
                                  0);
  sys.op = lyapunov_operator_vech(sys.a);
  const std::vector<Rational> rhs = vech(-RatMatrix::identity(mc.a.rows()));
  sys.b = RatMatrix{rhs.size(), 1};
  for (std::size_t i = 0; i < rhs.size(); ++i) sys.b(i, 0) = rhs[i];
  return sys;
}

/// One Table I job through the public layer calls (the composition of
/// lyap::synthesize + smt::validate_lyapunov that verify::run_verify makes
/// on a store-less miss).
JobOutcome replay_job(const ModeCase& mc, const Strategy& st, Tracer* tr,
                      std::uint64_t parent, std::uint64_t req,
                      std::size_t nproc, LayerSamples& layers,
                      std::mutex& layers_mutex) {
  using namespace spiv;
  JobOutcome out;
  const std::string stag = size_tag(mc.size);
  const std::size_t n = mc.a.rows();  // closed loop: plant + integrator states
  lyap::SynthesisOptions options;
  if (st.backend) options.backend = *st.backend;
  numeric::Matrix p;
  std::optional<exact::ModularStats> mstats;
  bool fallback = false;
  int iterations = -1;
  {
    Span synth{tr, "lyapunov.synth", parent, req, lyap::to_string(st.method)};
    if (st.method == lyap::Method::EqSmt) {
      ExactSystem sys;
      {
        Span s{tr, "exact.assemble", synth.id(), req, stag};
        sys = exact_system(mc);
      }
      std::optional<exact::RatMatrix> pe;
      {
        Span s{tr, "exact.solve", synth.id(), req, stag};
        exact::ModularOptions mo;
        mo.jobs = nproc;
        mo.stats = &mstats.emplace();
        if (auto x = exact::solve_rational_modular(sys.op, sys.b, {}, mo)) {
          std::vector<exact::Rational> col(x->rows());
          for (std::size_t i = 0; i < col.size(); ++i) col[i] = (*x)(i, 0);
          pe = exact::unvech(col, n);
        } else {
          fallback = true;
          pe = exact::solve_lyapunov_exact(sys.a, exact::RatMatrix::identity(n),
                                           {}, exact::ExactSolverStrategy::Bareiss);
        }
      }
      if (!pe) return out;
      p = numeric::Matrix{n, n};
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) p(i, j) = (*pe)(i, j).to_double();
      if (mc.size >= 15) out.p_digest = p_digest(*pe);
    } else {
      SynthReplay sr =
          replay_synthesis(mc.a, st.method, options, tr, synth.id(), req);
      iterations = sr.iterations;
      if (!sr.candidate) return out;
      p = std::move(sr.candidate->p);
    }
    out.synthesized = true;
  }
  smt::LyapunovValidation v;
  {
    Span s{tr, "smt.validate", parent, req, stag};
    v = smt::validate_lyapunov(mc.a, p, smt::Engine::Sylvester, 10);
  }
  out.valid = v.valid();
  std::lock_guard<std::mutex> lock(layers_mutex);
  layers.add("smt.positivity_ms." + stag, v.positivity.seconds * 1e3);
  layers.add("smt.decrease_ms." + stag, v.decrease.seconds * 1e3);
  if (iterations >= 0)
    layers.add("sdp.iterations." + metric_safe(st.backend_name()), iterations);
  if (mstats) {
    layers.add("exact.elim_s." + stag, mstats->elim_seconds);
    layers.add("exact.crt_s." + stag, mstats->crt_seconds);
    layers.add("exact.reconstruct_s." + stag, mstats->reconstruct_seconds);
    layers.add("exact.verify_s." + stag, mstats->verify_seconds);
    layers.add("exact.primes_used." + stag, static_cast<double>(mstats->primes_used));
    layers.add("exact.unlucky_primes." + stag,
               static_cast<double>(mstats->unlucky_primes));
    layers.add("exact.fallbacks." + stag, fallback ? 1.0 : 0.0);
  }
  return out;
}

/// The exact layer's own scaling: one solve at jobs=1 and at jobs=nproc
/// (identical results are required).  A jobs=nproc solve already timed
/// elsewhere is passed as `known` (seconds, digest of its P) and not rerun.
double parallel_speedup(const ModeCase& mc, std::size_t nproc,
                        std::size_t& wrong,
                        std::optional<std::pair<double, std::string>> known = {}) {
  const ExactSystem sys = exact_system(mc);
  double seconds[2] = {0, 0};
  std::string digests[2];
  const std::size_t jobs[2] = {1, nproc};
  for (int k = 0; k < 2; ++k) {
    if (k == 1 && known) {
      std::tie(seconds[k], digests[k]) = *known;
      break;
    }
    spiv::exact::ModularOptions mo;
    mo.jobs = jobs[k];
    const double t0 = now_s();
    const auto x = spiv::exact::solve_rational_modular(sys.op, sys.b, {}, mo);
    seconds[k] = now_s() - t0;
    digests[k] = "none";
    if (x) {
      std::vector<spiv::exact::Rational> col(x->rows());
      for (std::size_t i = 0; i < col.size(); ++i) col[i] = (*x)(i, 0);
      digests[k] = p_digest(spiv::exact::unvech(col, mc.a.rows()));
    }
  }
  if (digests[0] != digests[1] || digests[0] == "none") ++wrong;
  std::printf("# exact %s mode %zu solve: jobs=1 %.3f s, jobs=%zu %.3f s\n",
              mc.model.c_str(), mc.mode, seconds[0], nproc, seconds[1]);
  return seconds[1] > 0 ? seconds[0] / seconds[1] : 0.0;
}

RunResult traced_table1(const Options& opt, std::size_t pool_jobs) {
  RunResult res;
  LayerSamples layers;
  std::mutex layers_mutex;
  Tracer tracer;
  const std::vector<ModeCase> grid = mode_cases(kGridSizes, 2, &layers);
  const std::vector<ModeCase> big = mode_cases(kEqSmtSizes, kEqSmtModes, &layers);
  const std::vector<Strategy> strategies = spiv::core::paper_strategies();

  struct Job {
    const ModeCase* mc;
    Strategy st;
    std::string cell;
  };
  std::vector<Job> jobs;
  for (const Strategy& st : strategies)
    for (const ModeCase& mc : grid)
      jobs.push_back({&mc, st, st.name() + "/" + std::to_string(mc.size)});
  const std::size_t grid_jobs = jobs.size();
  for (const ModeCase& mc : big)
    jobs.push_back({&mc, strategies.front(), "eq-smt/" + std::to_string(mc.size)});

  auto& steals = spiv::obs::Registry::global().counter("spiv_pool_steals_total");
  const double steals0 = static_cast<double>(steals.value());
  std::vector<JobOutcome> outcomes(jobs.size());
  double job_time = 0.0;
  std::mutex time_mutex;  // guards job_time
  const double t0 = now_s();
  {
    spiv::core::JobPool pool{pool_jobs};
    // One pool for every job, the eq-smt column submitted first: the
    // longest jobs start at once, as in the untraced run.
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      const std::size_t i = (k + grid_jobs) % jobs.size();
      const std::uint64_t root = tracer.next_id();
      const double submitted = now_s();
      pool.submit([&, i, root, submitted] {
        const double started = now_s();
        const std::uint64_t req = i + 1;
        tracer.record({"core.pool_wait", "", submitted, started,
                       tracer.next_id(), root, req});
        try {
          outcomes[i] = replay_job(*jobs[i].mc, jobs[i].st, &tracer, root, req,
                                   opt.nproc, layers, layers_mutex);
        } catch (const std::exception& e) {  // jobs must not throw
          std::printf("# replay job %s failed: %s\n", jobs[i].cell.c_str(),
                      e.what());
        }
        const double finished = now_s();
        tracer.record({"table1.job", jobs[i].cell, submitted, finished, root,
                       0, req});
        std::lock_guard<std::mutex> lock(time_mutex);
        job_time += finished - started;
      });
    }
    pool.wait_idle();
  }
  const double wall = now_s() - t0;

  Reference got;
  std::map<std::string, std::vector<JobOutcome>> cells;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    cells[jobs[i].cell].push_back(outcomes[i]);
    if (!outcomes[i].p_digest.empty())
      got[pdigest_key(*jobs[i].mc)] = outcomes[i].p_digest;
  }
  for (const auto& [cell, v] : cells) got["cell\t" + cell] = cell_value(v);
  res.wrong_verdicts = check_reference(got, opt, res, /*with_eq_smt=*/true);
  res.attempted = jobs.size();
  for (const JobOutcome& o : outcomes) res.failed += !o.synthesized;

  const auto size18_mode0 = std::find_if(big.begin(), big.end(), [](const ModeCase& m) {
    return m.size == 18 && m.mode == 0;
  });
  layers.set("exact.parallel_speedup",
             parallel_speedup(*size18_mode0, opt.nproc, res.wrong_verdicts));

  const std::vector<SpanRec> spans = tracer.collect();
  const std::vector<double> self = self_times(spans);
  double attributed = 0.0, roots = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    const double d = spans[i].end - spans[i].start;
    if (name == "table1.job") {
      roots += d;
      continue;
    }
    attributed += self[i];
    if (name == "core.pool_wait") layers.add("core.pool_wait_us", d * 1e6);
    if (name == "lyapunov.synth")
      layers.add("lyapunov.synth_ms." + metric_safe(spans[i].tag), d * 1e3);
    if (name == "sdp.solve")
      layers.add("sdp.solve_ms." + metric_safe(spans[i].tag), d * 1e3);
  }
  layers.set("core.busy_frac", job_time / (static_cast<double>(pool_jobs) * wall));
  layers.set("core.steals", static_cast<double>(steals.value()) - steals0);
  layers.set("bench.trace_coverage", roots > 0 ? attributed / roots : 0.0);
  layers.set("bench.trace_overhead",
             roots > 0 ? span_cost_seconds() * static_cast<double>(spans.size()) /
                             roots
                       : 0.0);
  print_breakdown(spans, self);
  std::printf("# replay: %zu jobs, wall %.3f s\n", jobs.size(), wall);
  write_jsonl(opt.work_dir + "/trace-paper-table1-seed" +
                  std::to_string(opt.seed) + ".jsonl",
              spans);
  res.metrics = per_layer_metrics(layers.finish());
  return res;
}

}  // namespace

std::size_t trace_exact_layer(const Options& opt, LayerSamples& out) {
  LayerSamples layers;
  std::mutex layers_mutex;
  Tracer tracer;
  const std::vector<ModeCase> cases = mode_cases(kExactProbeSizes, 1, nullptr);
  const Strategy eq_smt = spiv::core::paper_strategies().front();
  Reference got;
  std::size_t wrong = 0;
  std::string speedup_digest;
  for (const ModeCase& mc : cases) {
    const std::uint64_t root = tracer.next_id();
    const std::string cell = "eq-smt/" + std::to_string(mc.size);
    const double t0 = now_s();
    const JobOutcome o = replay_job(mc, eq_smt, &tracer, root, root, opt.nproc,
                                    layers, layers_mutex);
    tracer.record({"table1.job", cell, t0, now_s(), root, 0, root});
    if (mc.size == kSpeedupSize) speedup_digest = o.p_digest;
    if (mc.size >= 15) {
      got["cell\t" + cell] = cell_value({o});
      got[pdigest_key(mc)] = o.p_digest;
    } else if (!o.valid) {  // the reference has the whole size-10 cell valid
      ++wrong;
      std::printf("# WRONG %s mode %zu: not valid\n", cell.c_str(), mc.mode);
    }
  }
  RunResult res;
  wrong += check_reference(got, opt, res, /*with_eq_smt=*/true,
                           /*only_got=*/true);
  if (res.reference_missing) ++wrong;

  const std::vector<SpanRec> spans = tracer.collect();
  double speedup_solve = 0.0;  // the jobs=nproc solve just replayed
  for (const SpanRec& s : spans) {
    const std::string name = s.name;
    if (name == "lyapunov.synth")
      layers.add("lyapunov.synth_ms." + metric_safe(s.tag), (s.end - s.start) * 1e3);
    if (name == "exact.solve" && s.tag == size_tag(kSpeedupSize))
      speedup_solve = s.end - s.start;
  }
  for (const auto& [name, value] : layers.finish())
    if (name.rfind("exact.", 0) == 0 || name == "lyapunov.synth_ms.eq_smt")
      out.set(name, value);
  const auto probe = std::find_if(cases.begin(), cases.end(), [](const ModeCase& m) {
    return m.size == kSpeedupSize;
  });
  out.set("exact.parallel_speedup",
          parallel_speedup(*probe, opt.nproc, wrong,
                           std::pair{speedup_solve, speedup_digest}));
  std::printf("# exact layer: eq-smt mode 0 at sizes 10/15/18\n");
  print_breakdown(spans, self_times(spans));
  return wrong;
}

RunResult run_table1_workload(const Options& opt) {
  // A probe takes a few milliseconds: many of them steady the median.  A
  // pause before each one starts every probe from the same idle state; back
  // to back, the probes of a run all ran fast or all slow (the median of 25
  // spread 27% between batches on a four-core VM, 9% with the pauses).
  std::vector<double> setups;
  for (std::size_t k = 0; k < kSetupProbes; ++k) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    setups.push_back(setup_probe(opt.self_bin));
  }
  const double setup_s = median(setups);
  const double t_family = now_s();
  (void)spiv::model::benchmark_family();
  std::printf("# benchmark_family(): %.4f s in this process; %zu set-up "
              "probes, median %.4f s, range %.4f - %.4f s\n",
              now_s() - t_family, setups.size(), setup_s,
              *std::min_element(setups.begin(), setups.end()),
              *std::max_element(setups.begin(), setups.end()));
  const std::size_t jobs = std::max<std::size_t>(1, opt.nproc / 2);
  std::printf("# harness: run_table1 sizes 3/5/10, 12 strategies, SplitBudget "
              "%.0f/%.0f s, jobs %zu, no store%s\n",
              kBudget, kBudget, jobs,
              opt.trace ? "; eq-smt at 15/18 (mode 0) in the same pool" : "");
  if (opt.trace) return traced_table1(opt, jobs);

  // The timed run is the grid alone, on half the cores: at one job per core
  // (with the eq-smt column beside it) the run-to-run spread on a four-core
  // VM reached 35%.  The eq-smt 15/18 cells and the exact layer are measured
  // by the traced run.
  RunResult res;
  const double cpu0 = process_cpu_self();
  const double t0 = now_s();
  spiv::core::ExperimentConfig config;
  config.sizes = kGridSizes;
  config.synth_timeout_seconds = kBudget;
  config.validate_timeout_seconds = kBudget;
  config.digits = 10;
  config.jobs = jobs;
  config.store = static_cast<spiv::store::CertStore*>(nullptr);
  const spiv::core::Table1Result table = spiv::core::run_table1(config);
  const double wall = now_s() - t0;
  const double cpu = process_cpu_self() - cpu0;

  // Latency samples are Table I's own timing column: each cell's mean
  // synthesis time over its four cases (a cell with a failed case is a miss).
  // Single small jobs swing too much under the pool's own contention.
  Reference got;
  std::vector<double> cell_ms;
  std::size_t missed_cells = 0;
  for (std::size_t s = 0; s < table.strategies.size(); ++s)
    for (const auto& [size, cell] : table.cells[s]) {
      got["cell\t" + table.strategies[s].name() + "/" + std::to_string(size)] =
          cell_text(cell.valid, cell.cases, cell.synthesized, cell.timeouts);
      res.attempted += static_cast<std::size_t>(cell.cases);
      res.failed += static_cast<std::size_t>(cell.cases - cell.synthesized);
      if (cell.synthesized == cell.cases)
        cell_ms.push_back(cell.avg_synth_seconds() * 1e3);
      else
        ++missed_cells;
    }
  res.wrong_verdicts = check_reference(got, opt, res, /*with_eq_smt=*/false);

  std::printf("# table1_wall_s = %.6f s (grid at sizes 3/5/10), %zu jobs\n",
              wall, res.attempted);
  const double miss_ms = 2 * kBudget * 1e3;
  const std::size_t ok = res.attempted - res.failed;
  res.metrics = {
      {"verify_p50_ms", "ms",
       percentile(cell_ms, missed_cells, miss_ms, 0.50, kP50Window)},
      {"verify_p90_ms", "ms", percentile(cell_ms, missed_cells, miss_ms, 0.90)},
      {"throughput_rps", "req/s", ok / wall},
      {"cpu_per_op_ms", "ms", ok ? cpu / ok * 1e3 : 0.0},
      {"peak_rss_mb", "MB", process_peak_rss_mb(::getpid())},
      {"setup_s", "s", setup_s},
  };
  return res;
}

}  // namespace spivbench

//===- perfbench.cpp - Reproduction benchmark: one workload, closed loop -===//
//
// Part of the TBAA reproduction of Diwan, McKinley & Moss, PLDI 1998.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload of the reproduction benchmark (perfbench/README.md)
/// in a closed loop on one thread: one item at a time, the next starting
/// when the previous one finishes, whole passes over the workload's item
/// set until the time budget is spent.
///
///   paper-figures  8 dynamic programs x 10 configurations (Figures 8-12,
///                  Table 4, the RLE ablation), each with the monitors
///                  its figures read.
///   paper-tables   10 programs x 3 alias levels: front end, Table 5
///                  census and Table 6 RLE; no VM.
///   fuzz-gen       8 generated ~4000-statement modules x 3 levels:
///                  RLE+PRE, then runDifferential against the unoptimised
///                  module.
///
/// The benchmark only calls the libraries' public functions and times them
/// from outside. With --trace it alternates untraced and traced passes,
/// records a span around every library call (Chrome trace JSON, written
/// at exit) and derives per-layer self time; exec/sim/limit self time
/// comes from re-executing each dynamic item bare, +TimingSimulator and
/// +RedundantLoadMonitor outside the item's own span.
///
/// Output is one JSON object on stdout (raw nanosecond samples and
/// per-item outcomes); perfbench/run.py turns it into the benchmark's
/// metrics and checks the outcomes against perfbench/expected.json.
///
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisManager.h"
#include "core/AliasCensus.h"
#include "core/AliasOracle.h"
#include "core/TBAAContext.h"
#include "exec/DiffGuard.h"
#include "exec/VM.h"
#include "ir/Pipeline.h"
#include "limit/LimitAnalysis.h"
#include "opt/CopyProp.h"
#include "opt/Devirt.h"
#include "opt/Inline.h"
#include "opt/RLE.h"
#include "sim/CacheSim.h"
#include "support/JSONUtil.h"
#include "workloads/Generator.h"
#include "workloads/Workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

using namespace tbaa;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Machine-speed reference. The shared host the baseline was measured on
/// changes speed by up to ~1.5x for minutes at a time; thread CPU time
/// tracks wall time through it, so it is contention, not scheduling.
/// This fixed kernel uses no repository code, only what compiler passes
/// spend their time on (hashing into an unordered_map, sorting, building
/// strings). Runs time it between items; run.py scales each timing by the
/// kernel's nominal time over the kernel time current when it was taken.
uint64_t ReferenceSink = 0;
uint64_t referenceKernelNs() {
  uint64_t T0 = nowNs();
  std::unordered_map<uint64_t, uint64_t> Map;
  std::vector<uint64_t> V;
  std::string S;
  uint64_t X = 88172645463325252ull; // xorshift64 state
  for (int I = 0; I < 6000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    Map[X & 0x3fff] += I;
    V.push_back(X);
    if ((X & 7) == 0)
      S += std::to_string(X & 0xffff);
  }
  std::sort(V.begin(), V.end());
  ReferenceSink += Map.size() + V[V.size() / 2] + S.size();
  return nowNs() - T0;
}
const uint64_t ReferenceEveryNs = 50'000'000;

const uint64_t VMFuel = 2'000'000'000; // as the figure binaries
const uint64_t DiffFuel = 20'000'000;  // as m3fuzz

/// Generated modules: the statement budget and procedure count
/// bench_scaling uses, default generator options otherwise.
const unsigned FuzzStatements = 4000;
const unsigned FuzzModulesPerRun = 8;
const unsigned FuzzPoolSize = 24;

/// Pool of module seeds the run seed draws from; expected.json pins
/// every module of the pool.
uint64_t fuzzPoolSeed(unsigned I) { return 1000 + 7919ull * I; }

//===----------------------------------------------------------------------===//
// Tracing: spans around library calls, per-layer self time, counts.
//===----------------------------------------------------------------------===//

enum class Layer {
  None,
  Ir,
  Core,
  Analysis,
  Opt,
  Exec,
  Sim,
  Limit,
  Workloads
};
const char *const LayerNames[] = {"none", "ir",  "core",  "analysis", "opt",
                                  "exec", "sim", "limit", "workloads"};
const unsigned NumLayers = 9;

/// Per-pass accumulators of the traced run: self time per layer, named
/// metrics (ms or counts) and the item time the layers must account for.
struct PassTrace {
  uint64_t LayerNs[NumLayers] = {};
  std::map<std::string, double> Values;
  uint64_t ItemNs = 0;
  uint64_t WallNs = 0;
  uint64_t RefNs = 0; ///< Reference-kernel time during the pass.
};

class Tracer {
public:
  bool On = false;

  void setItem(uint32_t Id) { Item = Id; }

  void begin(const char *Name, Layer L, const char *Metric) {
    uint64_t T = nowNs();
    Stack.push_back({Name, L, Metric, T, 0});
    Events.push_back({Name, L, 'B', T, Item});
  }

  void end() {
    uint64_t T = nowNs();
    Open O = Stack.back();
    Stack.pop_back();
    Events.push_back({O.Name, O.L, 'E', T, Item});
    uint64_t Dur = T - O.Start;
    uint64_t Self = Dur - std::min(Dur, O.ChildNs);
    if (!Stack.empty())
      Stack.back().ChildNs += Dur;
    if (Pass) {
      Pass->LayerNs[static_cast<unsigned>(O.L)] += Self;
      if (O.Metric)
        Pass->Values[O.Metric] += static_cast<double>(Self) / 1e6;
    }
  }

  /// Adds \p V to a named per-pass value (counts, or ms measured by
  /// differencing re-executions).
  void add(const char *Metric, double V) {
    if (On && Pass)
      Pass->Values[Metric] += V;
  }
  void addLayerNs(Layer L, int64_t Ns, const char *Metric) {
    if (!On || !Pass)
      return;
    // Differences of re-executions can come out slightly negative on
    // tiny items; they are kept signed so the per-pass sum stays unbiased.
    Pass->LayerNs[static_cast<unsigned>(L)] += static_cast<uint64_t>(Ns);
    Pass->Values[Metric] += static_cast<double>(Ns) / 1e6;
  }

  void setPass(PassTrace *P) { Pass = P; }

  bool write(const std::string &Path, uint64_t Origin) const {
    std::ofstream Out(Path);
    if (!Out)
      return false;
    Out << "{\"traceEvents\":[\n";
    Out << "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,"
           "\"tid\":1,\"args\":{\"name\":\"perfbench\"}}";
    for (const Event &E : Events) {
      uint64_t Us = (E.Ts - std::min(E.Ts, Origin)) / 1000;
      Out << ",\n{\"name\":\"" << E.Name << "\",\"cat\":\""
          << LayerNames[static_cast<unsigned>(E.L)] << "\",\"ph\":\"" << E.Ph
          << "\",\"ts\":" << Us << ",\"pid\":1,\"tid\":1";
      if (E.Ph == 'B')
        Out << ",\"args\":{\"item\":" << E.Item << "}";
      Out << "}";
    }
    Out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(Out);
  }

private:
  struct Open {
    const char *Name;
    Layer L;
    const char *Metric;
    uint64_t Start;
    uint64_t ChildNs;
  };
  struct Event {
    const char *Name;
    Layer L;
    char Ph;
    uint64_t Ts;
    uint32_t Item;
  };
  std::vector<Open> Stack;
  std::vector<Event> Events;
  PassTrace *Pass = nullptr;
  uint32_t Item = 0;
};

Tracer TheTracer;

/// RAII span; costs one branch when tracing is off.
class Span {
public:
  Span(const char *Name, Layer L, const char *Metric = nullptr)
      : On(TheTracer.On) {
    if (On)
      TheTracer.begin(Name, L, Metric);
  }
  ~Span() {
    if (On)
      TheTracer.end();
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  bool On;
};

//===----------------------------------------------------------------------===//
// Items and their outcomes.
//===----------------------------------------------------------------------===//

/// What one execution of an item produced. Pins are the paper numbers
/// compared against expected.json; every value (pins and Counts) must
/// repeat exactly on every pass.
struct Outcome {
  std::vector<std::pair<std::string, int64_t>> Pins;
  std::vector<std::pair<std::string, int64_t>> Counts;
  std::string Error;

  void pin(const char *K, int64_t V) { Pins.emplace_back(K, V); }
  void count(const char *K, int64_t V) { Counts.emplace_back(K, V); }
  void fail(std::string Msg) {
    if (Error.empty())
      Error = std::move(Msg);
  }
  bool sameValues(const Outcome &O) const {
    return Pins == O.Pins && Counts == O.Counts;
  }
};

enum class Config {
  Base,
  RLETypeDecl,
  RLEFieldTypeDecl,
  RLESMFieldTypeRefs,
  RLEOpenWorld,
  MinvInl,
  RLEMinvInl,
  AblationCopyProp,
  AblationPRE,
  AblationBoth,
};

struct ConfigInfo {
  Config C;
  const char *Name;
  AliasLevel Level;
  bool UsesManager; ///< Passes draw analyses from an AnalysisManager.
  bool Timing;      ///< Attaches the TimingSimulator.
  bool Limit;       ///< Attaches the RedundantLoadMonitor.
};

/// The distinct configurations Figures 8-12, Table 4 and the ablation
/// need, each with only the monitors its figures read.
const ConfigInfo Configs[] = {
    {Config::Base, "base", AliasLevel::SMFieldTypeRefs, false, true, true},
    {Config::RLETypeDecl, "rle-typedecl", AliasLevel::TypeDecl, true, true,
     false},
    {Config::RLEFieldTypeDecl, "rle-fieldtypedecl", AliasLevel::FieldTypeDecl,
     true, true, false},
    {Config::RLESMFieldTypeRefs, "rle-smfieldtyperefs",
     AliasLevel::SMFieldTypeRefs, true, true, true},
    {Config::RLEOpenWorld, "rle-openworld", AliasLevel::SMFieldTypeRefs, true,
     true, false},
    {Config::MinvInl, "minv-inl", AliasLevel::SMFieldTypeRefs, true, true,
     false},
    {Config::RLEMinvInl, "rle-minv-inl", AliasLevel::SMFieldTypeRefs, true,
     true, false},
    {Config::AblationCopyProp, "ablation-copyprop",
     AliasLevel::SMFieldTypeRefs, false, false, true},
    {Config::AblationPRE, "ablation-pre", AliasLevel::SMFieldTypeRefs, false,
     false, true},
    {Config::AblationBoth, "ablation-both", AliasLevel::SMFieldTypeRefs, false,
     false, true},
};

const AliasLevel TableLevels[3] = {AliasLevel::TypeDecl,
                                   AliasLevel::FieldTypeDecl,
                                   AliasLevel::SMFieldTypeRefs};
const char *levelName(AliasLevel L) {
  switch (L) {
  case AliasLevel::TypeDecl:
    return "typedecl";
  case AliasLevel::FieldTypeDecl:
    return "fieldtypedecl";
  default:
    return "smfieldtyperefs";
  }
}

struct Item {
  std::string Key;
  const WorkloadInfo *W = nullptr;   ///< paper-* items.
  const std::string *Source = nullptr; ///< fuzz-gen items.
  const ConfigInfo *Cfg = nullptr;   ///< paper-figures items.
  AliasLevel Level = AliasLevel::SMFieldTypeRefs;
};

size_t instrCount(const IRModule &M) {
  size_t N = 0;
  for (const IRFunction &F : M.Functions)
    N += F.instrCount();
  return N;
}

bool compile(const std::string &Source, Compilation &C, Outcome &Out) {
  DiagnosticEngine Diags;
  {
    Span S("compileSource", Layer::Ir, "ir.compile_ms");
    C = compileSource(Source, Diags);
  }
  if (!C.ok()) {
    Out.fail("compile failed: " + Diags.str());
    return false;
  }
  size_t N = instrCount(C.IR);
  Out.count("instrs", static_cast<int64_t>(N));
  TheTracer.add("ir.instrs", static_cast<double>(N));
  return true;
}

/// Builds the manager and forces the module analyses through its getters
/// before any pass runs, so each lands in its own span.
void prepareManager(AnalysisManager &AM, const IRModule &M) {
  {
    Span S("context", Layer::Core, "core.context_ms");
    AM.bind(M);
    AM.context();
    AM.oracle();
  }
  {
    Span S("callGraph", Layer::Analysis, "analysis.callgraph_ms");
    AM.callGraph();
  }
  {
    Span S("modRef", Layer::Analysis, "analysis.modref_ms");
    AM.modRef();
  }
}

void census(AnalysisManager &AM, const IRModule &M, Outcome &Out) {
  CensusResult R;
  {
    Span S("countAliasPairs", Layer::Core, "core.census_ms");
    R = countAliasPairs(M, *AM.aliasClasses(), AM.oracle());
  }
  Out.pin("census_refs", static_cast<int64_t>(R.References));
  Out.pin("census_local_pairs", static_cast<int64_t>(R.LocalPairs));
  Out.pin("census_global_pairs", static_cast<int64_t>(R.GlobalPairs));
  TheTracer.add("core.census_refs", static_cast<double>(R.References));
}

void recordQueries(AnalysisManager &AM, Outcome &Out) {
  const InstrumentedOracle *IO = AM.instrumented();
  if (!IO)
    return;
  const OracleStats &S = IO->stats();
  Out.count("alias_queries", static_cast<int64_t>(S.totalQueries()));
  Out.count("alias_noalias", static_cast<int64_t>(S.NoAlias));
  TheTracer.add("core.alias_queries", static_cast<double>(S.totalQueries()));
  TheTracer.add("core.noalias", static_cast<double>(S.NoAlias));
}

void recordRLE(const RLEStats &R, Outcome &Out) {
  Out.pin("rle_hoisted", R.Hoisted);
  Out.pin("rle_replaced", R.Replaced);
  TheTracer.add("opt.loads_removed", R.total());
}

void recordPRE(const PREStats &P, Outcome &Out) {
  Out.pin("pre_inserted", P.Inserted);
  Out.pin("pre_replaced", P.Replaced);
  TheTracer.add("opt.loads_removed", P.Replaced);
}

void recordInstrsAfter(const IRModule &M, Outcome &Out) {
  size_t N = instrCount(M);
  Out.count("instrs_after", static_cast<int64_t>(N));
  TheTracer.add("opt.instrs_after", static_cast<double>(N));
}

//===----------------------------------------------------------------------===//
// VM execution with a monitor set.
//===----------------------------------------------------------------------===//

struct Classifier {
  std::vector<uint32_t> Conditional;
  std::vector<uint32_t> AliasFailure;
  bool Enabled = false;
};

struct VMResult {
  bool Ok = false;
  std::string Trap;
  int64_t Checksum = 0;
  ExecStats Stats;
  uint64_t Cycles = 0, Hits = 0, Misses = 0;
  uint64_t MonitorHeapLoads = 0, Redundant = 0;
  RedundancyBreakdown Breakdown;
};

VMResult execute(const IRModule &M, bool Timing, bool Limit,
                 const Classifier &Cls) {
  VMResult R;
  TimingSimulator Sim;
  RedundantLoadMonitor Mon;
  if (Limit && Cls.Enabled)
    Mon.configureClassifier(Cls.Conditional, Cls.AliasFailure);
  VM Machine(M);
  Machine.setOpLimit(VMFuel);
  if (Timing)
    Machine.addMonitor(&Sim);
  if (Limit)
    Machine.addMonitor(&Mon);
  if (!Machine.runInit()) {
    R.Trap = "init trapped: " + Machine.trapMessage();
    return R;
  }
  auto V = Machine.callFunction("Main");
  if (!V) {
    R.Trap = "Main trapped: " + Machine.trapMessage();
    return R;
  }
  R.Ok = true;
  R.Checksum = *V;
  R.Stats = Machine.stats();
  if (Timing) {
    R.Cycles = Sim.cycles(Machine.stats());
    R.Hits = Sim.cache().hits();
    R.Misses = Sim.cache().misses();
  }
  if (Limit) {
    R.MonitorHeapLoads = Mon.heapLoads();
    R.Redundant = Mon.redundantLoads();
    R.Breakdown = Mon.breakdown();
  }
  return R;
}

/// Traced runs only: re-executes \p M bare, then adding the item's
/// monitors one at a time, and charges each difference to its layer.
/// The returned wall time is taken out of the item's latency and the
/// pass time, so these extra spans stay out of the overhead comparison.
uint64_t reexecute(const IRModule &M, const ConfigInfo &Cfg,
                   const Classifier &Cls) {
  Span Root("reexec", Layer::None);
  uint64_t Start = nowNs();
  auto Timed = [&](const char *Name, bool Timing, bool Limit) {
    Span S(Name, Layer::None);
    uint64_t T0 = nowNs();
    execute(M, Timing, Limit, Cls);
    return static_cast<int64_t>(nowNs() - T0);
  };
  int64_t Bare = Timed("vm-bare", false, false);
  TheTracer.addLayerNs(Layer::Exec, Bare, "exec.vm_ms");
  int64_t Prev = Bare;
  if (Cfg.Timing) {
    int64_t WithSim = Timed("vm+timing", true, false);
    TheTracer.addLayerNs(Layer::Sim, WithSim - Prev, "sim.ms");
    Prev = WithSim;
  }
  if (Cfg.Limit) {
    int64_t WithLimit = Timed("vm+limit", Cfg.Timing, true);
    TheTracer.addLayerNs(Layer::Limit, WithLimit - Prev, "limit.ms");
  }
  return nowNs() - Start;
}

//===----------------------------------------------------------------------===//
// Workload item bodies.
//===----------------------------------------------------------------------===//

Outcome runFigureItem(const Item &It, uint64_t &ReexecNs) {
  Outcome Out;
  const ConfigInfo &Cfg = *It.Cfg;
  Compilation C;
  if (!compile(It.W->Source, C, Out))
    return Out;

  Classifier Cls;
  if (Cfg.UsesManager) {
    AnalysisManager AM(C.ast(), C.types(),
                       {.Level = Cfg.Level,
                        .OpenWorld = Cfg.C == Config::RLEOpenWorld,
                        .Degrading = false});
    prepareManager(AM, C.IR);
    if (Cfg.C == Config::MinvInl || Cfg.C == Config::RLEMinvInl) {
      unsigned Resolved = 0, Inlined = 0;
      {
        Span S("resolveMethodCalls", Layer::Opt, "opt.devirt_ms");
        Resolved = resolveMethodCalls(C.IR, AM.context());
        if (Resolved)
          AM.invalidateModuleAnalyses();
      }
      {
        Span S("inlineCalls", Layer::Opt, "opt.inline_ms");
        Inlined = inlineCalls(C.IR, AM);
      }
      Out.pin("resolved", Resolved);
      Out.pin("inlined", Inlined);
    }
    if (Cfg.C != Config::MinvInl) {
      RLEStats R;
      {
        Span S("runRLE", Layer::Opt, "opt.rle_ms");
        R = runRLE(C.IR, AM);
      }
      recordRLE(R, Out);
    }
    recordQueries(AM, Out);
    if (Cfg.C == Config::RLESMFieldTypeRefs) {
      // Figure 10's classifier, set up exactly as fig10 does.
      std::unique_ptr<TBAAContext> Ctx;
      std::unique_ptr<AliasOracle> TBAA, Perfect;
      {
        Span S("context", Layer::Core, "core.context_ms");
        Ctx = std::make_unique<TBAAContext>(C.ast(), C.types(),
                                            TBAAOptions{});
        TBAA = makeAliasOracle(*Ctx, AliasLevel::SMFieldTypeRefs);
        Perfect = makeAliasOracle(*Ctx, AliasLevel::Perfect);
      }
      Span S("classify", Layer::Limit, "limit.classify_ms");
      Cls.Conditional = findPartiallyRedundantLoads(C.IR, *TBAA);
      Cls.AliasFailure = findRemovableLoads(C.IR, *Perfect);
      Cls.Enabled = true;
    }
  } else if (Cfg.C != Config::Base) {
    // The ablation arms, on a plain oracle as ablation_rle runs them.
    std::unique_ptr<TBAAContext> Ctx;
    std::unique_ptr<AliasOracle> Oracle;
    {
      Span S("context", Layer::Core, "core.context_ms");
      Ctx = std::make_unique<TBAAContext>(C.ast(), C.types(), TBAAOptions{});
      Oracle = makeAliasOracle(*Ctx, AliasLevel::SMFieldTypeRefs);
    }
    bool CopyProp =
        Cfg.C == Config::AblationCopyProp || Cfg.C == Config::AblationBoth;
    bool PRE = Cfg.C == Config::AblationPRE || Cfg.C == Config::AblationBoth;
    RLEStats R;
    {
      Span S("runRLE", Layer::Opt, "opt.rle_ms");
      R = runRLE(C.IR, *Oracle);
    }
    if (CopyProp) {
      {
        Span S("propagateCopies", Layer::Opt, "opt.copyprop_ms");
        propagateCopies(C.IR);
      }
      Span S("runRLE", Layer::Opt, "opt.rle_ms");
      RLEStats R2 = runRLE(C.IR, *Oracle);
      R.Hoisted += R2.Hoisted;
      R.Replaced += R2.Replaced;
    }
    recordRLE(R, Out);
    if (PRE) {
      PREStats P;
      {
        Span S("runLoadPRE", Layer::Opt, "opt.pre_ms");
        P = runLoadPRE(C.IR, *Oracle);
      }
      recordPRE(P, Out);
    }
  }
  if (Cfg.C != Config::Base)
    recordInstrsAfter(C.IR, Out);

  VMResult R;
  {
    Span S("vm-run", Layer::None);
    R = execute(C.IR, Cfg.Timing, Cfg.Limit, Cls);
  }
  if (!R.Ok) {
    Out.fail(R.Trap);
    return Out;
  }
  Out.pin("checksum", R.Checksum);
  Out.pin("ops", static_cast<int64_t>(R.Stats.Ops));
  Out.pin("heap_loads", static_cast<int64_t>(R.Stats.HeapLoads));
  Out.pin("other_loads", static_cast<int64_t>(R.Stats.OtherLoads));
  Out.count("calls", static_cast<int64_t>(R.Stats.Calls));
  if (Cfg.Timing) {
    Out.pin("cycles", static_cast<int64_t>(R.Cycles));
    Out.pin("cache_hits", static_cast<int64_t>(R.Hits));
    Out.pin("cache_misses", static_cast<int64_t>(R.Misses));
  }
  if (Cfg.Limit) {
    Out.pin("redundant_loads", static_cast<int64_t>(R.Redundant));
    if (R.MonitorHeapLoads != R.Stats.HeapLoads)
      Out.fail("limit monitor saw a different heap-load count");
  }
  if (Cls.Enabled) {
    Out.pin("fig10_encapsulated",
            static_cast<int64_t>(R.Breakdown.Encapsulated));
    Out.pin("fig10_alias_failure",
            static_cast<int64_t>(R.Breakdown.AliasFailure));
    Out.pin("fig10_conditional",
            static_cast<int64_t>(R.Breakdown.Conditional));
    Out.pin("fig10_breakup", static_cast<int64_t>(R.Breakdown.Breakup));
    Out.pin("fig10_rest", static_cast<int64_t>(R.Breakdown.Rest));
  }
  TheTracer.add("exec.ops", static_cast<double>(R.Stats.Ops));
  TheTracer.add("exec.calls", static_cast<double>(R.Stats.Calls));
  TheTracer.add("exec.heap_loads", static_cast<double>(R.Stats.HeapLoads));
  TheTracer.add("sim.accesses", static_cast<double>(R.Hits + R.Misses));
  TheTracer.add("sim.hits", static_cast<double>(R.Hits));

  if (TheTracer.On)
    ReexecNs += reexecute(C.IR, Cfg, Cls);
  return Out;
}

Outcome runTableItem(const Item &It) {
  Outcome Out;
  Compilation C;
  if (!compile(It.W->Source, C, Out))
    return Out;
  AnalysisManager AM(C.ast(), C.types(),
                     {.Level = It.Level, .Degrading = false});
  prepareManager(AM, C.IR);
  census(AM, C.IR, Out);
  RLEStats R;
  {
    Span S("runRLE", Layer::Opt, "opt.rle_ms");
    R = runRLE(C.IR, AM);
  }
  recordRLE(R, Out);
  recordQueries(AM, Out);
  recordInstrsAfter(C.IR, Out);
  return Out;
}

Outcome runFuzzItem(const Item &It) {
  Outcome Out;
  Compilation C;
  if (!compile(*It.Source, C, Out))
    return Out;
  IRModule Pristine = C.IR;
  AnalysisManager AM(C.ast(), C.types(),
                     {.Level = It.Level, .Degrading = false});
  prepareManager(AM, C.IR);
  census(AM, C.IR, Out);
  RLEStats R;
  {
    Span S("runRLE", Layer::Opt, "opt.rle_ms");
    R = runRLE(C.IR, AM);
  }
  recordRLE(R, Out);
  PREStats P;
  {
    Span S("runLoadPRE", Layer::Opt, "opt.pre_ms");
    P = runLoadPRE(C.IR, AM);
  }
  recordPRE(P, Out);
  recordQueries(AM, Out);
  recordInstrsAfter(C.IR, Out);

  DiffResult D;
  {
    Span S("runDifferential", Layer::Exec, "exec.vm_ms");
    D = runDifferential(Pristine, C.IR, DiffFuel);
  }
  if (D.Status != DiffStatus::Match)
    Out.fail("differential run: " + (D.Detail.empty()
                                         ? std::string("inconclusive")
                                         : D.Detail));
  if (D.Base.Trapped)
    Out.fail("base module trapped: " + D.Base.TrapMessage);
  Out.pin("checksum", D.Base.Result.value_or(0));
  Out.pin("base_store_hash", static_cast<int64_t>(D.Base.StoreHash));
  Out.pin("base_store_count", static_cast<int64_t>(D.Base.StoreCount));
  Out.pin("base_ops", static_cast<int64_t>(D.Base.Ops));
  Out.count("opt_ops", static_cast<int64_t>(D.Opt.Ops));
  TheTracer.add("exec.ops", static_cast<double>(D.Base.Ops + D.Opt.Ops));
  return Out;
}

//===----------------------------------------------------------------------===//
// Main loop.
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  std::string TracePath;
  bool SetupOnly = false;
  bool Pin = false;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper-figures|paper-tables|fuzz-gen --seed N --seconds S "
               "[--trace FILE] [--setup-only] [--pin]\n",
               Msg);
  std::exit(2);
}

Options parseArgs(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= argc)
        usage(("missing value for " + A).c_str());
      return argv[++I];
    };
    if (A == "--workload")
      O.Workload = Next();
    else if (A == "--seed")
      O.Seed = std::strtoull(Next().c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(Next().c_str(), nullptr);
    else if (A == "--trace")
      O.TracePath = Next();
    else if (A == "--setup-only")
      O.SetupOnly = true;
    else if (A == "--pin")
      O.Pin = true;
    else
      usage(("unknown argument " + A).c_str());
  }
  if (O.Workload != "paper-figures" && O.Workload != "paper-tables" &&
      O.Workload != "fuzz-gen")
    usage("unknown workload");
  if (!(O.Seconds > 0))
    usage("--seconds must be positive");
  return O;
}

struct Workload {
  std::vector<Item> Items;
  std::vector<std::string> Sources; ///< fuzz-gen modules (stable storage).
  std::vector<uint64_t> ModuleSeeds;
};

/// Builds the workload's item set: the set-up cost setup_s measures.
void setUp(const Options &O, Workload &WL) {
  if (O.Workload == "fuzz-gen") {
    std::vector<unsigned> Pool(FuzzPoolSize);
    for (unsigned I = 0; I != FuzzPoolSize; ++I)
      Pool[I] = I;
    if (!O.Pin) {
      std::mt19937_64 Rng(O.Seed);
      std::shuffle(Pool.begin(), Pool.end(), Rng);
      Pool.resize(FuzzModulesPerRun);
    }
    WL.Sources.reserve(Pool.size());
    for (unsigned I : Pool) {
      GeneratorOptions G;
      G.Seed = fuzzPoolSeed(I);
      G.StatementBudget = FuzzStatements;
      G.NumProcs = 1 + FuzzStatements / 60;
      WL.ModuleSeeds.push_back(G.Seed);
      Span S("generateProgram", Layer::Workloads, "workloads.generate_ms");
      WL.Sources.push_back(generateProgram(G));
    }
    for (size_t M = 0; M != WL.Sources.size(); ++M)
      for (AliasLevel L : TableLevels) {
        Item It;
        It.Key = "gen" + std::to_string(WL.ModuleSeeds[M]) + "/" +
                 levelName(L);
        It.Source = &WL.Sources[M];
        It.Level = L;
        WL.Items.push_back(It);
      }
    return;
  }
  const std::vector<WorkloadInfo> *All = nullptr;
  {
    Span S("allWorkloads", Layer::Workloads, "workloads.generate_ms");
    All = &allWorkloads();
  }
  for (const WorkloadInfo &W : *All) {
    if (O.Workload == "paper-figures") {
      if (W.Interactive)
        continue; // no dynamic data in the paper for dom/postcard
      for (const ConfigInfo &Cfg : Configs) {
        Item It;
        It.Key = std::string(W.Name) + "/" + Cfg.Name;
        It.W = &W;
        It.Cfg = &Cfg;
        WL.Items.push_back(It);
      }
    } else {
      for (AliasLevel L : TableLevels) {
        Item It;
        It.Key = std::string(W.Name) + "/" + levelName(L);
        It.W = &W;
        It.Level = L;
        WL.Items.push_back(It);
      }
    }
  }
}

Outcome runItem(const Options &O, const Item &It, uint64_t &ReexecNs) {
  if (O.Workload == "paper-figures")
    return runFigureItem(It, ReexecNs);
  if (O.Workload == "paper-tables")
    return runTableItem(It);
  return runFuzzItem(It);
}

struct ItemRecord {
  Outcome First;
  unsigned Runs = 0;
  unsigned Failed = 0;
  std::string Error;
};

/// Full-precision rendering: json::Writer keeps six digits, which would
/// round the per-pass operation counts.
std::string exact(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void writePairs(json::Writer &W,
                const std::vector<std::pair<std::string, int64_t>> &Pairs) {
  W.beginObject();
  for (const auto &[K, V] : Pairs)
    W.key(K).value(V);
  W.endObject();
}

/// --pin: one unshuffled, untimed pass over the whole item universe,
/// printed in expected.json's shape.
int pin(const Options &O, Workload &WL) {
  json::Writer W;
  W.beginObject();
  if (O.Workload == "paper-figures") {
    // Every program's unoptimised checksum, dom/postcard included.
    W.key("base_checksums").beginObject();
    for (const WorkloadInfo &Wk : allWorkloads()) {
      Outcome Out;
      Compilation C;
      if (!compile(Wk.Source, C, Out))
        usage(Out.Error.c_str());
      VMResult R = execute(C.IR, false, false, Classifier{});
      if (!R.Ok)
        usage(R.Trap.c_str());
      W.key(Wk.Name).value(R.Checksum);
    }
    W.endObject();
  }
  if (O.Workload == "fuzz-gen") {
    W.key("module_seeds").beginArray();
    for (uint64_t S : WL.ModuleSeeds)
      W.value(S);
    W.endArray();
  }
  W.key("items").beginObject();
  for (const Item &It : WL.Items) {
    uint64_t Unused = 0;
    Outcome Out = runItem(O, It, Unused);
    if (!Out.Error.empty()) {
      std::fprintf(stderr, "perfbench: %s: %s\n", It.Key.c_str(),
                   Out.Error.c_str());
      return 1;
    }
    W.key(It.Key);
    writePairs(W, Out.Pins);
  }
  W.endObject();
  W.endObject();
  std::printf("%s\n", W.str().c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  uint64_t ProcessStart = nowNs();
  Options O = parseArgs(argc, argv);
  TheTracer.On = !O.TracePath.empty();

  // Set-up is traced into a pass of its own (the generator's time).
  PassTrace SetupTrace;
  TheTracer.setPass(&SetupTrace);
  Workload WL;
  setUp(O, WL);
  TheTracer.setPass(nullptr);
  uint64_t SetupNs = nowNs() - ProcessStart;
  if (O.SetupOnly) {
    std::vector<uint64_t> Ref;
    for (int I = 0; I != 5; ++I)
      Ref.push_back(referenceKernelNs());
    std::nth_element(Ref.begin(), Ref.begin() + 2, Ref.end());
    std::printf("{\"setup_ns\":%llu,\"reference_ns\":%llu}\n",
                static_cast<unsigned long long>(SetupNs),
                static_cast<unsigned long long>(Ref[2]));
    return WL.Items.empty() ? 1 : 0;
  }
  if (O.Pin) {
    TheTracer.On = false;
    return pin(O, WL);
  }

  // A pass must hold enough items that >= 10 samples lie beyond p90.
  const size_t MinSamples = 100;
  const unsigned MinPasses = static_cast<unsigned>(
      (MinSamples + WL.Items.size() - 1) / WL.Items.size());
  const uint64_t BudgetNs = static_cast<uint64_t>(O.Seconds * 1e9);
  const bool Tracing = TheTracer.On;
  TheTracer.On = false; // each pass turns it back on for itself

  std::mt19937_64 Rng(O.Seed);
  std::vector<size_t> Order(WL.Items.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;

  std::vector<ItemRecord> Records(WL.Items.size());
  // Untimed samples: latency and pass time, each with the reference-kernel
  // time current when it was taken.
  std::vector<uint64_t> ItemNs, ItemRefNs, PassNs, PassRefNs;
  std::vector<PassTrace> Traced;
  uint32_t NextItemId = 1;

  std::vector<uint64_t> ReferenceNs;
  uint64_t LastReference = 0;
  auto Median = [](std::vector<uint64_t> V) {
    std::nth_element(V.begin(), V.begin() + V.size() / 2, V.end());
    return V[V.size() / 2];
  };
  // The machine speed an item ran at: the median of the last five
  // reference timings (a 250 ms window).
  auto CurrentReference = [&]() {
    size_t N = std::min<size_t>(ReferenceNs.size(), 5);
    return Median(std::vector<uint64_t>(ReferenceNs.end() - N,
                                        ReferenceNs.end()));
  };

  // Runs item \p Idx once, checks it against its first run and returns
  // its latency. Adds to \p ExcludedNs the time spent on the reference
  // kernel and on a traced run's re-executions, which no timing includes.
  auto RunOne = [&](size_t Idx, uint64_t &ExcludedNs) {
    if (nowNs() - LastReference >= ReferenceEveryNs) {
      uint64_t R0 = nowNs();
      ReferenceNs.push_back(referenceKernelNs());
      LastReference = nowNs();
      ExcludedNs += LastReference - R0;
    }
    const Item &It = WL.Items[Idx];
    TheTracer.setItem(NextItemId++);
    uint64_t T0 = nowNs();
    Outcome Out;
    {
      Span S("item", Layer::None);
      uint64_t Before = ExcludedNs;
      Out = runItem(O, It, ExcludedNs);
      T0 += ExcludedNs - Before;
    }
    uint64_t Ns = nowNs() - T0;
    ItemRecord &Rec = Records[Idx];
    if (++Rec.Runs == 1)
      Rec.First = Out;
    else if (Out.Error.empty() && !Out.sameValues(Rec.First))
      Out.fail("counts drifted between passes");
    if (!Out.Error.empty()) {
      ++Rec.Failed;
      if (Rec.Error.empty())
        Rec.Error = Out.Error;
    }
    return Ns;
  };

  // Warm-up, untimed but checked: a fresh process runs its first few
  // hundred milliseconds measurably slower.
  {
    uint64_t WarmEnd = nowNs() + 500'000'000;
    uint64_t Unused = 0;
    for (size_t I = 0; I != WL.Items.size() && nowNs() < WarmEnd; ++I)
      RunOne(I, Unused);
  }

  // Untraced runs: closed-loop passes. Traced runs alternate an untraced
  // pass (the overhead baseline) with a traced one.
  uint64_t LoopStart = nowNs();
  for (unsigned Pass = 0;; ++Pass) {
    bool TracePass = Tracing && Pass % 2 == 1;
    TheTracer.On = TracePass;
    if (TracePass) {
      Traced.emplace_back();
      TheTracer.setPass(&Traced.back());
    }
    std::shuffle(Order.begin(), Order.end(), Rng);
    uint64_t PassStart = nowNs();
    uint64_t ExcludedNs = 0;
    std::vector<uint64_t> Refs;
    for (size_t Idx : Order) {
      uint64_t Ns = RunOne(Idx, ExcludedNs);
      Refs.push_back(CurrentReference());
      if (TracePass) {
        Traced.back().ItemNs += Ns;
      } else {
        ItemNs.push_back(Ns);
        ItemRefNs.push_back(Refs.back());
      }
    }
    uint64_t Wall = nowNs() - PassStart - ExcludedNs;
    if (TracePass) {
      Traced.back().WallNs = Wall;
      Traced.back().RefNs = Median(Refs);
      TheTracer.setPass(nullptr); // Traced may reallocate before the next
    } else {
      PassNs.push_back(Wall);
      PassRefNs.push_back(Median(Refs));
    }
    uint64_t Elapsed = nowNs() - LoopStart;
    bool Enough = Tracing ? (Pass % 2 == 1) : (Pass + 1 >= MinPasses);
    if (Enough && Elapsed + Wall > BudgetNs)
      break;
  }
  TheTracer.On = false;

  json::Writer W;
  W.beginObject();
  W.key("workload").value(O.Workload);
  W.key("seed").value(O.Seed);
  W.key("setup_ns").value(SetupNs);
  struct rusage RU = {};
  getrusage(RUSAGE_SELF, &RU);
  W.key("peak_rss_kb").value(static_cast<int64_t>(RU.ru_maxrss));
  if (O.Workload == "fuzz-gen") {
    W.key("module_seeds").beginArray();
    for (uint64_t S : WL.ModuleSeeds)
      W.value(S);
    W.endArray();
  }
  auto Array = [&](const char *Key, const std::vector<uint64_t> &V) {
    W.key(Key).beginArray();
    for (uint64_t X : V)
      W.value(X);
    W.endArray();
  };
  Array("pass_ns", PassNs);
  Array("pass_ref_ns", PassRefNs);
  Array("item_ns", ItemNs);
  Array("item_ref_ns", ItemRefNs);
  W.key("reference_sink").value(ReferenceSink); // keeps the kernel's work live
  W.key("items").beginObject();
  for (size_t I = 0; I != WL.Items.size(); ++I) {
    const ItemRecord &Rec = Records[I];
    W.key(WL.Items[I].Key).beginObject();
    W.key("runs").value(Rec.Runs);
    W.key("failed").value(Rec.Failed);
    if (!Rec.Error.empty())
      W.key("error").value(Rec.Error);
    W.key("pins");
    writePairs(W, Rec.First.Pins);
    W.endObject();
  }
  W.endObject();
  if (Tracing) {
    W.key("generate_ms").raw(exact(SetupTrace.Values["workloads.generate_ms"]));
    W.key("traced_passes").beginArray();
    for (const PassTrace &P : Traced) {
      W.beginObject();
      W.key("wall_ns").value(P.WallNs);
      W.key("item_ns").value(P.ItemNs);
      W.key("ref_ns").value(P.RefNs);
      W.key("layer_ns").beginObject();
      for (unsigned L = 1; L != NumLayers; ++L)
        W.key(LayerNames[L]).value(static_cast<int64_t>(P.LayerNs[L]));
      W.endObject();
      W.key("values").beginObject();
      for (const auto &[K, V] : P.Values)
        W.key(K).raw(exact(V));
      W.endObject();
      W.endObject();
    }
    W.endArray();
    if (!TheTracer.write(O.TracePath, ProcessStart)) {
      std::fprintf(stderr, "perfbench: cannot write trace '%s'\n",
                   O.TracePath.c_str());
      return 1;
    }
  }
  W.endObject();
  std::printf("%s\n", W.str().c_str());
  return 0;
}

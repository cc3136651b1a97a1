// fleetbench: the fleet benchmark. One process runs one workload for a fixed
// window and prints, as its last stdout line, one JSON object:
//
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {name: {value, unit}}}
//
// With --trace 0 the metrics are the end-to-end numbers a fleet operator
// sees (launch and boot latency, boots per second, memory per VM and per
// host, set-up time), measured on the product path: MicroVm::Boot for full
// boots, ImageTemplateCache::GetOrBuild + DirectLoadFromTemplate for
// launches. With --trace 1 the metrics are per-layer numbers from a second
// pass in which this file times every call it makes into a layer's public
// function (the program's own trace points are not used). The line before
// the result is a {"detail": ...} object with sample counts, host
// calibration, self-checks and the first errors seen.
//
// Usage: fleetbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--scale X] [--rate R] [--setups K]
//
// Workloads (see README.md for why each exists):
//   launch_fgkaslr       open loop, inline FGKASLR launches, no guest runs
//   boot_nokaslr         closed loop, 3 workers, full boots, one shared layout
//   boot_kaslr           closed loop, 3 workers, full boots, inline KASLR
//   boot_fgkaslr_pooled  closed loop, 2 workers + 2 refill threads, pooled
//                        FGKASLR layouts under a memory governor
//
// VM i of a run boots with seed (--seed + i); the seed is the only source of
// the run's inputs.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/base/crc32.h"
#include "src/base/stopwatch.h"
#include "src/base/threadpool.h"
#include "src/isa/block_cache.h"
#include "src/kaslr/fgkaslr.h"
#include "src/kaslr/random_offset.h"
#include "src/kaslr/relocator.h"
#include "src/kernel/kernel_builder.h"
#include "src/kernel/relocs.h"
#include "src/verify/layout_uniqueness.h"
#include "src/vmm/boot_storm.h"
#include "src/vmm/device_model.h"
#include "src/vmm/disk_model.h"
#include "src/vmm/image_template.h"
#include "src/vmm/layout_pool.h"
#include "src/vmm/loader.h"
#include "src/vmm/mem_governor.h"
#include "src/vmm/microvm.h"
#include "src/vmm/vcpu.h"

namespace imk::fleetbench {
namespace {

constexpr uint64_t kGuestMem = 256ull << 20;
constexpr double kMiB = 1024.0 * 1024.0;
// launch_fgkaslr's fixed open-loop rate: about half the closed-loop capacity
// of 4 workers on a 4-core host (114-127 launches/s).
constexpr double kLaunchRate = 60.0;
// An open-loop run whose generator fell further behind schedule than this
// at p90 had a growing backlog: it is invalid, not a latency sample. A
// host stall delays only the launches due during it; an overload makes the
// lateness grow by seconds over the window.
constexpr double kLateBoundMs = 1000.0;
constexpr uint32_t kPoolDepth = 8;
constexpr uint32_t kPoolRefillThreads = 2;
constexpr uint64_t kAdmitWaitMs = 2000;
// Trace runs: the mean of the traced boots' layer spans must match the mean
// untraced VM cycle (admission to teardown) within this share of it.
constexpr double kSpanTolerance = 0.20;
// Seeds on which the kaslr layer's functions are timed directly.
constexpr uint32_t kKaslrSamples = 8;
// VMs whose layouts form the run's layout digest (tests compare it).
constexpr uint64_t kDigestVms = 8;
// Warm-up VMs draw seeds from past any measured index.
constexpr uint64_t kWarmupSeedOffset = 1u << 30;
// Trace runs re-boot this many of the run's first seeds through
// RunBootStorm, the product's fleet driver (see CheckAgainstStorm).
constexpr uint32_t kStormCheckVms = 6;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  double rate = kLaunchRate;
  uint32_t setups = 3;
};

struct Workload {
  const char* name;
  RandoMode rando;
  bool full_boot;  // false: launch only, open loop
  bool pooled;
  uint32_t workers;
};

constexpr Workload kWorkloads[] = {
    {"launch_fgkaslr", RandoMode::kFgKaslr, false, false, 4},
    {"boot_nokaslr", RandoMode::kNone, true, false, 3},
    {"boot_kaslr", RandoMode::kKaslr, true, false, 3},
    {"boot_fgkaslr_pooled", RandoMode::kFgKaslr, true, true, 4 - kPoolRefillThreads},
};

double NowMs() { return static_cast<double>(MonotonicNowNs()) / 1e6; }

// Nearest-rank percentile of an unsorted sample (0 when empty).
double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) {
    sum += v;
  }
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

uint64_t ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  return n == 2 ? resident * 4096ull : 0;
}

// ---- host calibration ----

struct HostCalibration {
  double memcpy_gbps = 0;
  double crc32_gbps = 0;
};

HostCalibration CalibrateHost() {
  constexpr size_t kBytes = 32ull << 20;
  constexpr int kReps = 6;
  Bytes src(kBytes);
  for (size_t i = 0; i < kBytes; ++i) {
    src[i] = static_cast<uint8_t>(i * 131 + (i >> 12));
  }
  Bytes dst(kBytes);
  std::memcpy(dst.data(), src.data(), kBytes);  // fault the pages in first
  HostCalibration cal;
  Stopwatch copy_timer;
  for (int r = 0; r < kReps; ++r) {
    // Reading the previous copy keeps every copy live.
    src[static_cast<size_t>(r)] ^= dst[static_cast<size_t>(r) * 4096 + 1];
    std::memcpy(dst.data(), src.data(), kBytes);
  }
  cal.memcpy_gbps = static_cast<double>(kBytes) * kReps / static_cast<double>(copy_timer.ElapsedNs());
  Stopwatch crc_timer;
  for (int r = 0; r < kReps / 2; ++r) {
    (void)Crc32(ByteSpan(dst));
  }
  cal.crc32_gbps =
      static_cast<double>(kBytes) * (kReps / 2) / static_cast<double>(crc_timer.ElapsedNs());
  return cal;
}

// ---- set-up: kernel build, template warm-up, pool prefill ----

// Everything a run shares across its VMs. Member order is teardown order in
// reverse: the governor outlives every cache that charges it, and the
// layout pool dies before its refill executor.
struct Env {
  std::unique_ptr<MemGovernor> governor;
  KernelBuildInfo kernel;
  Bytes relocs_blob;
  uint64_t usable_mem = 0;  // offset-chooser bound the VMs use
  // One per worker: the page-cache model is per monitor thread.
  std::vector<std::unique_ptr<Storage>> storages;
  std::unique_ptr<ImageTemplateCache> cache;
  // The mapping of the image the template was warmed through. The template
  // itself is looked up when needed, never pinned here: on the pooled
  // workload the governor may evict it, as it would in a fleet.
  ByteSpan image;
  uint64_t image_bytes = 0;  // memsz span of the loaded image
  std::unique_ptr<SharedBlockCache> shared_blocks;
  std::optional<ThreadPool> refill;
  std::unique_ptr<LayoutPool> pool;
  std::vector<Reclaimable*> hooks;

  Env() = default;
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;
  ~Env() {
    for (Reclaimable* hook : hooks) {
      governor->UnregisterReclaimable(hook);
    }
  }

  void Register(Reclaimable* hook, uint32_t priority) {
    if (governor != nullptr) {
      governor->RegisterReclaimable(hook, priority);
      hooks.push_back(hook);
    }
  }
};

// A monitor's view of the kernel files: the image and, when the kernel is
// relocatable, its relocs sidecar (paper Figure 8).
std::unique_ptr<Storage> MakeStorage(const Bytes& vmlinux, const Bytes& relocs_blob) {
  auto storage = std::make_unique<Storage>();
  storage->Put("vmlinux", Bytes(vmlinux));
  if (!relocs_blob.empty()) {
    storage->Put("vmlinux.relocs", Bytes(relocs_blob));
  }
  return storage;
}

DirectBootParams BootParams(const Workload& wl, const Env& env) {
  DirectBootParams params;
  params.requested = wl.rando;
  params.usable_mem_limit = env.usable_mem;
  return params;
}

// The pooled workload's governor budget, sized like the storm_churn lane:
// the concurrent VMs' private frames with headroom, the pool's renders plus
// slack, and a fixed floor. The soft watermark at half of it sits below that
// working set, so the reclamation ladder runs during the window.
uint64_t PooledBudget(uint64_t per_vm_bytes, uint64_t image_bytes, uint32_t workers) {
  return per_vm_bytes * workers * 3 / 2 + image_bytes * (kPoolDepth + 8) * 5 / 4 + (64ull << 20);
}

// One set-up. `budget` is the pooled workload's governor budget (0 for the
// others); `setup_s` receives the timed part. A pool renders on `refill`
// when given (a trace run's twin set-up shares the refill threads), else on
// refill threads of its own.
Result<std::unique_ptr<Env>> SetUp(const Workload& wl, const Options& opts, uint64_t budget,
                                   double* setup_s, ThreadPool* refill = nullptr) {
  Stopwatch timer;
  auto env = std::make_unique<Env>();
  if (wl.pooled) {
    MemGovernorOptions gov;
    gov.budget_bytes = budget;
    gov.soft_pct = 0.5;
    env->governor = std::make_unique<MemGovernor>(gov);
  }
  IMK_ASSIGN_OR_RETURN(env->kernel,
                       BuildKernel(KernelConfig::Make(KernelProfile::kAws, wl.rando, opts.scale)));
  if (wl.rando != RandoMode::kNone) {
    env->relocs_blob = SerializeRelocs(env->kernel.relocs);
  }
  {
    // MicroVm bounds the offset chooser by the device model's RAM
    // reservation; launches, direct calls and the pool key use the same.
    GuestMemory probe(kGuestMem);
    IMK_ASSIGN_OR_RETURN(DeviceModel devices,
                         DeviceModel::Create(probe, DeviceModelConfig::Firecracker()));
    env->usable_mem = devices.reserved_floor_phys();
  }
  env->cache = std::make_unique<ImageTemplateCache>();
  if (env->governor != nullptr) {
    env->cache->set_accountant(env->governor->shared_accountant(MemCategory::kTemplateImages));
    env->Register(env->cache.get(), 2);
  }
  // The template is warmed through the mapping the VMs read: the cache
  // recognizes a repeat mapping without hashing the image, and it remembers
  // only a few mappings (one per worker here).
  env->image = ByteSpan(env->kernel.vmlinux);
  if (wl.full_boot) {
    for (uint32_t t = 0; t < wl.workers; ++t) {
      env->storages.push_back(MakeStorage(env->kernel.vmlinux, env->relocs_blob));
    }
    IMK_ASSIGN_OR_RETURN(Storage::ReadResult read, env->storages.front()->Read("vmlinux"));
    env->image = read.data;
  }
  IMK_ASSIGN_OR_RETURN(std::shared_ptr<const ImageTemplate> tmpl,
                       env->cache->GetOrBuild(env->image, {}));
  env->image_bytes = tmpl->mem_size;
  if (wl.full_boot) {
    env->shared_blocks = std::make_unique<SharedBlockCache>();
    if (env->governor != nullptr) {
      env->shared_blocks->set_accountant(
          env->governor->shared_accountant(MemCategory::kDecodeTables));
      env->Register(env->shared_blocks.get(), 1);
    }
  }
  if (wl.pooled) {
    if (refill == nullptr) {
      env->refill.emplace(kPoolRefillThreads + 1);  // + the (idle) calling lane
      refill = &*env->refill;
    }
    LayoutPoolOptions pool_opts;
    pool_opts.depth = kPoolDepth;
    pool_opts.seed = opts.seed;
    pool_opts.refill_pool = refill;
    pool_opts.accountant = env->governor->shared_accountant(MemCategory::kLayoutRenders);
    env->pool = std::make_unique<LayoutPool>(tmpl, env->kernel.relocs, BootParams(wl, *env),
                                             env->usable_mem, pool_opts);
    env->Register(env->pool.get(), 0);
    IMK_RETURN_IF_ERROR(env->pool->Prefill(kPoolDepth));
    env->pool->WaitIdle();
  }
  *setup_s = static_cast<double>(timer.ElapsedNs()) / 1e9;
  return env;
}

// Private bytes one inline boot of this kernel materializes, and the image
// span: the pooled budget's per-VM and per-render terms. Benchmark sizing,
// not product set-up, so it is not timed.
Result<uint64_t> PooledBudgetFor(const Workload& wl, const Options& opts) {
  IMK_ASSIGN_OR_RETURN(KernelBuildInfo kernel,
                       BuildKernel(KernelConfig::Make(KernelProfile::kAws, wl.rando, opts.scale)));
  const std::unique_ptr<Storage> storage =
      MakeStorage(kernel.vmlinux, SerializeRelocs(kernel.relocs));
  MicroVmConfig config;
  config.kernel_image = "vmlinux";
  config.relocs_image = "vmlinux.relocs";
  config.rando = wl.rando;
  config.seed = opts.seed + kWarmupSeedOffset;
  config.use_template_cache = false;
  MicroVm vm(*storage, config);
  IMK_ASSIGN_OR_RETURN(BootReport report, vm.Boot());
  return PooledBudget(vm.memory().dirty_bytes(), report.mem.image_frames * FrameStore::kFrameBytes,
                      wl.workers);
}

// ---- one VM ----

struct VmRecord {
  uint64_t index = 0;
  bool ok = false;
  std::string error;
  double latency_ms = 0;  // launch: due -> ready; boot: Boot() call -> return
  double launch_ms = 0;   // to the first guest instruction (from the launch's start)
  double late_ms = 0;     // launch: start - due
  double cycle_ms = 0;    // admission .. teardown done
  uint64_t dirty_bytes = 0;
  uint64_t checksum = 0;
  bool pool_hit = false;
  LayoutIdentity layout;
  // Layer spans (traced pass).
  double admit_ms = 0;
  double board_ms = 0;  // device model, image reads, relocs parse
  double template_ms = 0;
  double load_ms = 0;
  double guest_ms = 0;
  double teardown_ms = 0;
  LoaderMemStats mem;
  ExecStats guest;
  double span_sum() const {
    return admit_ms + board_ms + template_ms + load_ms + guest_ms + teardown_ms;
  }
};

MicroVmConfig VmConfig(const Workload& wl, Env& env, uint64_t seed) {
  MicroVmConfig config;
  config.mem_size_bytes = kGuestMem;
  config.kernel_image = "vmlinux";
  if (wl.rando != RandoMode::kNone) {
    config.relocs_image = "vmlinux.relocs";
  }
  config.rando = wl.rando;
  config.seed = seed;
  config.template_cache = env.cache.get();
  config.shared_block_cache = env.shared_blocks.get();
  config.mem_governor = env.governor.get();
  config.layout_pool = env.pool.get();
  return config;
}

void FillLayout(const OffsetChoice& choice, uint64_t fg_digest, VmRecord* rec) {
  rec->layout.virt_slide = choice.virt_slide;
  rec->layout.phys_load_addr = choice.phys_load_addr;
  rec->layout.fg_digest = fg_digest;
}

Status CheckGuest(bool init_done, StopReason stop, uint64_t checksum, uint64_t expected) {
  if (!init_done || stop != StopReason::kHalt) {
    return InternalError("guest did not reach init");
  }
  if (checksum != expected) {
    return InternalError("guest init checksum mismatch");
  }
  return OkStatus();
}

// Monitor-side launch: template lookup, offset choice, CoW map, shuffle,
// relocate. The VM in `memory` is then ready for its first guest instruction.
Status LaunchOne(const Workload& wl, Env& env, uint64_t seed,
                 std::unique_ptr<GuestMemory>* memory, VmRecord* rec) {
  const double start = NowMs();
  *memory = std::make_unique<GuestMemory>(kGuestMem);
  double t = NowMs();
  IMK_ASSIGN_OR_RETURN(std::shared_ptr<const ImageTemplate> tmpl,
                       env.cache->GetOrBuild(env.image, {}));
  double now = NowMs();
  rec->template_ms = now - t;
  t = now;
  Rng rng(seed);
  DirectLoadResources resources;
  resources.layout_pool = env.pool.get();
  IMK_ASSIGN_OR_RETURN(LoadedKernel loaded,
                       DirectLoadFromTemplate(**memory, tmpl, &env.kernel.relocs,
                                              BootParams(wl, env), rng, resources));
  now = NowMs();
  rec->load_ms = now - t;
  rec->launch_ms = now - start;
  rec->dirty_bytes = (*memory)->dirty_bytes();
  rec->mem = loaded.mem;
  rec->pool_hit = loaded.layout_pool_hit;
  FillLayout(loaded.choice, loaded.fg.has_value() ? loaded.fg->map.PermutationDigest() : 0, rec);
  return OkStatus();
}

// Full boot through the product entry point.
Status BootOne(const Workload& wl, Env& env, Storage& storage, uint64_t seed,
               std::unique_ptr<MicroVm>* vm_out, VmRecord* rec) {
  auto vm = std::make_unique<MicroVm>(storage, VmConfig(wl, env, seed));
  const double t = NowMs();
  Result<BootReport> report = vm->Boot();
  rec->latency_ms = NowMs() - t;
  *vm_out = std::move(vm);
  IMK_RETURN_IF_ERROR(report.status());
  rec->launch_ms = static_cast<double>(report->timeline.measured_ns(BootPhase::kInMonitor)) / 1e6;
  rec->guest_ms = static_cast<double>(report->timeline.measured_ns(BootPhase::kLinuxBoot)) / 1e6;
  rec->checksum = report->init_checksum;
  rec->dirty_bytes = (*vm_out)->memory().dirty_bytes();
  rec->mem = report->mem;
  rec->guest = report->guest_stats;
  rec->pool_hit = report->layout_pool_hit;
  FillLayout(report->choice, report->fg_digest, rec);
  return CheckGuest(report->init_done, report->guest_stop, report->init_checksum,
                    env.kernel.expected_checksum);
}

// The same boot decomposed into the layers' public calls, each timed here.
// Mirrors MicroVm::BootDirect step for step, so its spans add up to what the
// untraced pass measures around MicroVm::Boot.
struct TracedVm {
  std::unique_ptr<GuestMemory> memory;
  std::optional<DeviceModel> devices;
  std::unique_ptr<Vcpu> vcpu;
};

Status TracedBootOne(const Workload& wl, Env& env, Storage& storage, uint64_t seed,
                     TracedVm* vm, VmRecord* rec) {
  double t = NowMs();
  vm->memory = std::make_unique<GuestMemory>(kGuestMem);
  if (env.governor != nullptr) {
    vm->memory->frames().set_accountant(
        env.governor->shared_accountant(MemCategory::kGuestFrames));
  }
  IMK_ASSIGN_OR_RETURN(DeviceModel devices,
                       DeviceModel::Create(*vm->memory, DeviceModelConfig::Firecracker()));
  vm->devices = std::move(devices);
  IMK_ASSIGN_OR_RETURN(Storage::ReadResult kernel_read, storage.Read("vmlinux"));
  RelocInfo relocs;
  if (wl.rando != RandoMode::kNone) {
    IMK_ASSIGN_OR_RETURN(Storage::ReadResult relocs_read, storage.Read("vmlinux.relocs"));
    IMK_ASSIGN_OR_RETURN(relocs, ParseRelocs(relocs_read.data));
  }
  double now = NowMs();
  rec->board_ms = now - t;
  t = now;
  IMK_ASSIGN_OR_RETURN(std::shared_ptr<const ImageTemplate> tmpl,
                       env.cache->GetOrBuild(kernel_read.data, {}));
  now = NowMs();
  rec->template_ms = now - t;
  t = now;
  DirectBootParams params = BootParams(wl, env);
  params.usable_mem_limit = vm->devices->reserved_floor_phys();
  Rng rng(seed);
  DirectLoadResources resources;
  resources.layout_pool = env.pool.get();
  IMK_ASSIGN_OR_RETURN(LoadedKernel loaded,
                       DirectLoadFromTemplate(*vm->memory, tmpl,
                                              relocs.empty() ? nullptr : &relocs, params, rng,
                                              resources));
  now = NowMs();
  rec->load_ms = now - t;
  rec->launch_ms = rec->board_ms + rec->template_ms + rec->load_ms;
  t = now;
  vm->vcpu = std::make_unique<Vcpu>(*vm->memory, loaded.kernel_map, loaded.direct_map);
  vm->vcpu->set_block_cache(true);
  vm->vcpu->set_shared_block_cache(env.shared_blocks.get());
  const uint64_t fg_digest = loaded.fg.has_value() ? loaded.fg->map.PermutationDigest() : 0;
  if (env.shared_blocks != nullptr) {
    // The layout key MicroVm derives for whole-table decode sharing.
    uint64_t key = 0x9e3779b97f4a7c15ull;
    const auto mix = [&key](uint64_t v) {
      key ^= v + 0x9e3779b97f4a7c15ull + (key << 6) + (key >> 2);
    };
    mix(reinterpret_cast<uint64_t>(tmpl.get()));
    mix(loaded.choice.virt_slide);
    mix(loaded.choice.phys_load_addr);
    mix(fg_digest);
    vm->vcpu->set_layout_key(key != 0 ? key : 1);
  }
  IMK_ASSIGN_OR_RETURN(VcpuOutcome outcome,
                       vm->vcpu->Run(loaded.entry_vaddr, loaded.stack_top, params.usable_mem_limit,
                                     loaded.resv_start_phys, loaded.resv_end_phys,
                                     MicroVmConfig{}.max_boot_instructions));
  rec->guest_ms = NowMs() - t;
  rec->latency_ms = rec->board_ms + rec->template_ms + rec->load_ms + rec->guest_ms;
  rec->checksum = outcome.init_checksum;
  rec->dirty_bytes = vm->memory->dirty_bytes();
  rec->mem = loaded.mem;
  rec->guest = outcome.run.stats;
  rec->pool_hit = loaded.layout_pool_hit;
  FillLayout(loaded.choice, fg_digest, rec);
  return CheckGuest(outcome.init_done, outcome.run.reason, outcome.init_checksum,
                    env.kernel.expected_checksum);
}

// ---- a measured pass ----

// What one set-up's shared state did over a pass.
struct EnvStats {
  uint64_t template_hits = 0;
  uint64_t template_misses = 0;
  LayoutPool::Stats pool_before;
  LayoutPool::Stats pool_after;
  SharedBlockCache::Stats shared;
  std::optional<MemGovernor::Stats> governor;
};

struct Pass {
  uint64_t sent = 0;             // launches the generator handed out
  std::vector<VmRecord> vms;     // by index
  std::vector<VmRecord> traced;  // trace runs: the same seeds, booted traced
  double window_s = 0;
  uint64_t peak_rss = 0;
  EnvStats stats;
  EnvStats twin_stats;
};

class Runner {
 public:
  // `twin`, when given, is a second, independent set-up on which every seed
  // is booted again through the traced path, back to back with its
  // untraced boot and in alternating order: both see the same host, and
  // neither can adopt the decode tables the other published.
  Runner(const Workload& wl, const Options& opts, Env& env, Env* twin)
      : wl_(wl), opts_(opts), env_(env), twin_(wl.full_boot ? twin : nullptr) {}

  Pass Run(double seconds) {
    // Warm-up: one untimed VM per worker fills the template cache, the
    // storage page-cache models, and the shared decode tier.
    RunWorkers([&](uint32_t t) {
      VmRecord rec;
      One(env_, t, opts_.seed + kWarmupSeedOffset + t, false, &rec);
      if (twin_ != nullptr) {
        One(*twin_, t, opts_.seed + kWarmupSeedOffset + t, true, &rec);
      }
    });
    Pass pass;
    Begin(env_, &pass.stats);
    if (twin_ != nullptr) {
      Begin(*twin_, &pass.twin_stats);
    }
    std::atomic<uint64_t> next{0};
    std::atomic<uint64_t> peak_rss{0};
    std::mutex merge_mutex;
    const double t0 = NowMs();
    const double end = t0 + seconds * 1000.0;
    const double interval_ms = 1000.0 / opts_.rate;
    const auto note_rss = [&](uint64_t rss) {
      uint64_t seen = peak_rss.load(std::memory_order_relaxed);
      while (rss > seen && !peak_rss.compare_exchange_weak(seen, rss)) {
      }
    };
    RunWorkers([&](uint32_t t) {
      std::vector<VmRecord> mine;
      std::vector<VmRecord> mine_traced;
      for (;;) {
        const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
        VmRecord rec;
        rec.index = i;
        double due = 0;
        if (!wl_.full_boot) {
          // Open loop: launch i is due at a fixed offset from the start,
          // whether or not earlier launches have finished.
          due = t0 + static_cast<double>(i) * interval_ms;
          if (due >= end) {
            break;
          }
          std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(due - NowMs()));
        } else if (NowMs() >= end) {
          break;
        }
        const double start = NowMs();
        VmRecord traced;
        traced.index = i;
        if (twin_ != nullptr && i % 2 == 1) {
          note_rss(One(*twin_, t, opts_.seed + i, true, &traced));
        }
        note_rss(One(env_, t, opts_.seed + i, false, &rec));
        if (twin_ != nullptr && i % 2 == 0) {
          note_rss(One(*twin_, t, opts_.seed + i, true, &traced));
        }
        if (!wl_.full_boot) {
          rec.late_ms = start - due;
          rec.latency_ms = rec.late_ms + rec.launch_ms;
        }
        mine.push_back(std::move(rec));
        if (twin_ != nullptr) {
          mine_traced.push_back(std::move(traced));
        }
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      pass.vms.insert(pass.vms.end(), mine.begin(), mine.end());
      pass.traced.insert(pass.traced.end(), mine_traced.begin(), mine_traced.end());
    });
    pass.window_s = (NowMs() - t0) / 1000.0;
    // Each worker stops on an index it drew but did not launch.
    pass.sent = next.load() - wl_.workers;
    const auto by_index = [](const VmRecord& a, const VmRecord& b) { return a.index < b.index; };
    std::sort(pass.vms.begin(), pass.vms.end(), by_index);
    std::sort(pass.traced.begin(), pass.traced.end(), by_index);
    pass.peak_rss = peak_rss.load();
    End(env_, &pass.stats);
    if (twin_ != nullptr) {
      End(*twin_, &pass.twin_stats);
    }
    return pass;
  }

 private:
  template <typename Fn>
  void RunWorkers(Fn fn) {
    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < wl_.workers; ++t) {
      threads.emplace_back([&fn, t] { fn(t); });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }

  static void Begin(Env& env, EnvStats* stats) {
    if (env.pool != nullptr) {
      env.pool->WaitIdle();
      stats->pool_before = env.pool->stats();
    }
    stats->template_hits = env.cache->hits();
    stats->template_misses = env.cache->misses();
  }

  static void End(Env& env, EnvStats* stats) {
    stats->template_hits = env.cache->hits() - stats->template_hits;
    stats->template_misses = env.cache->misses() - stats->template_misses;
    if (env.pool != nullptr) {
      env.pool->WaitIdle();
      stats->pool_after = env.pool->stats();
    }
    if (env.shared_blocks != nullptr) {
      stats->shared = env.shared_blocks->stats();
    }
    if (env.governor != nullptr) {
      stats->governor = env.governor->stats();
    }
  }

  // Runs one VM on `env` from admission to teardown on worker `t`; returns
  // the process RSS sampled while the VM was still alive.
  uint64_t One(Env& env, uint32_t t, uint64_t seed, bool traced, VmRecord* rec) {
    const double cycle_start = NowMs();
    Status status = OkStatus();
    uint64_t rss = 0;
    if (env.governor != nullptr) {
      const double admit_start = NowMs();
      const bool admitted = env.governor->Admit(env.image_bytes, kAdmitWaitMs);
      rec->admit_ms = NowMs() - admit_start;
      if (!admitted) {
        status = ResourceExhaustedError("refused admission at the hard watermark");
      }
    }
    if (status.ok() && !wl_.full_boot) {
      std::unique_ptr<GuestMemory> memory;
      status = LaunchOne(wl_, env, seed, &memory, rec);
      rss = ResidentBytes();
      const double t0 = NowMs();
      memory.reset();
      rec->teardown_ms = NowMs() - t0;
    } else if (status.ok() && traced) {
      TracedVm vm;
      status = TracedBootOne(wl_, env, *env.storages[t], seed, &vm, rec);
      rss = ResidentBytes();
      const double t0 = NowMs();
      vm.vcpu.reset();
      vm.devices.reset();
      vm.memory.reset();
      rec->teardown_ms = NowMs() - t0;
    } else if (status.ok()) {
      std::unique_ptr<MicroVm> vm;
      status = BootOne(wl_, env, *env.storages[t], seed, &vm, rec);
      rss = ResidentBytes();
      const double t0 = NowMs();
      vm.reset();
      rec->teardown_ms = NowMs() - t0;
    }
    rec->cycle_ms = NowMs() - cycle_start;
    rec->ok = status.ok();
    if (!status.ok()) {
      rec->error = status.ToString();
    }
    return rss;
  }

  const Workload& wl_;
  const Options& opts_;
  Env& env_;
  Env* twin_;
};

// ---- direct calls into the kaslr layer ----

struct KaslrTimes {
  std::vector<double> choose_ms, shuffle_ms, reloc_ms;
  uint64_t relocations = 0;
  uint64_t sections_shuffled = 0;
  std::vector<LayoutIdentity> layouts;  // per sample seed
};

// Times ChooseRandomOffsets, ShuffleFunctionsPreparsed and the relocation
// walk on a flat copy of the pristine image, seeded like the loader.
Result<KaslrTimes> TimeKaslr(const Workload& wl, const Env& env, const std::vector<uint64_t>& seeds) {
  KaslrTimes out;
  IMK_ASSIGN_OR_RETURN(std::shared_ptr<const ImageTemplate> pinned,
                       env.cache->GetOrBuild(env.image, {}));
  const ImageTemplate& tmpl = *pinned;
  KernelConstantsNote constants =
      tmpl.note_constants.has_value() ? *tmpl.note_constants : DefaultKernelConstants();
  OffsetConstraints constraints;
  constraints.image_mem_size = tmpl.mem_size;
  constraints.guest_mem_size = env.usable_mem;
  constraints.reserved_tail = DirectBootParams{}.stack_slack;
  constraints.constants = constants;
  RelocScratch scratch;
  Bytes move_scratch;
  for (uint64_t seed : seeds) {
    Bytes image = tmpl.pristine;
    LoadedImageView view(MutableByteSpan(image), tmpl.link_base);
    Rng rng(seed);
    double t = NowMs();
    IMK_ASSIGN_OR_RETURN(OffsetChoice choice, ChooseRandomOffsets(constraints, rng));
    double now = NowMs();
    out.choose_ms.push_back(now - t);
    std::optional<FgKaslrResult> fg;
    if (wl.rando == RandoMode::kFgKaslr) {
      FgExecContext context;
      context.scratch = &scratch;
      context.move_scratch = &move_scratch;
      context.pristine = ByteSpan(tmpl.pristine);
      t = NowMs();
      IMK_ASSIGN_OR_RETURN(FgKaslrResult result,
                           ShuffleFunctionsPreparsed(*tmpl.fg, view, FgKaslrParams{}, rng, context));
      now = NowMs();
      out.shuffle_ms.push_back(now - t);
      out.sections_shuffled = result.sections_shuffled;
      fg = std::move(result);
    }
    RelocApplyOptions reloc_opts;
    reloc_opts.scratch = &scratch;
    t = NowMs();
    IMK_ASSIGN_OR_RETURN(RelocStats stats,
                         fg.has_value() ? ApplyRelocationsShuffled(view, env.kernel.relocs,
                                                                   choice.virt_slide, fg->map,
                                                                   reloc_opts)
                                        : ApplyRelocations(view, env.kernel.relocs,
                                                           choice.virt_slide, reloc_opts));
    out.reloc_ms.push_back(NowMs() - t);
    out.relocations = stats.applied_abs64 + stats.applied_abs32 + stats.applied_inverse32;
    out.layouts.push_back(
        {choice.virt_slide, choice.phys_load_addr, fg.has_value() ? fg->map.PermutationDigest() : 0});
  }
  return out;
}

// Renders `count` layouts synchronously on a fresh pool; ms per render.
Result<double> TimePoolRender(const Workload& wl, const Env& env, const Options& opts) {
  constexpr uint32_t kCount = 3;
  LayoutPoolOptions pool_opts;
  pool_opts.depth = kCount;
  pool_opts.seed = opts.seed + kWarmupSeedOffset;
  IMK_ASSIGN_OR_RETURN(std::shared_ptr<const ImageTemplate> tmpl,
                       env.cache->GetOrBuild(env.image, {}));
  LayoutPool pool(tmpl, env.kernel.relocs, BootParams(wl, env), env.usable_mem, pool_opts);
  const double t = NowMs();
  IMK_RETURN_IF_ERROR(pool.Prefill(kCount));
  return (NowMs() - t) / kCount;
}

// ---- output ----

class JsonObject {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(value) ? value : 0.0);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& value) {
    std::string escaped;
    for (char c : value) {
      if (c == '"' || c == '\\') {
        escaped += '\\';
        escaped += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        escaped += ' ';
      } else {
        escaped += c;
      }
    }
    Raw(key, "\"" + escaped + "\"");
  }
  void Bool(const std::string& key, bool value) { Raw(key, value ? "true" : "false"); }
  void Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
  }
  void Metric(const std::string& name, double value, const char* unit) {
    JsonObject m;
    m.Num("value", value);
    m.Str("unit", unit);
    Raw(name, m.str());
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

uint64_t LayoutDigest(const std::vector<VmRecord>& vms) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((v >> (8 * b)) & 0xff)) * 1099511628211ull;
    }
  };
  for (const VmRecord& rec : vms) {
    if (rec.index < kDigestVms) {
      mix(rec.layout.virt_slide);
      mix(rec.layout.phys_load_addr);
      mix(rec.layout.fg_digest);
    }
  }
  return h;
}

template <typename Fn>
std::vector<double> Collect(const std::vector<VmRecord>& vms, Fn fn) {
  std::vector<double> out;
  for (const VmRecord& rec : vms) {
    if (rec.ok) {
      out.push_back(fn(rec));
    }
  }
  return out;
}

// Launches are counted from three sources: the generator (attempted), the
// records that came back ok (succeeded) and those that did not, plus
// repeated layouts (failed). A launch lost or counted twice breaks
// attempted == succeeded + failed.
struct Checks {
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  // self-check failures: the run is not correct
  std::vector<std::string> errors;    // first per-VM errors
};

// Counts `sent` launches and, among their records, the failed VMs and the
// repeated layouts: a VM that repeats an earlier layout failed.
void CheckVms(const Workload& wl, uint64_t sent, const std::vector<VmRecord>& vms,
              Checks* checks) {
  checks->attempted += sent;
  std::vector<LayoutIdentity> layouts;
  for (const VmRecord& rec : vms) {
    if (!rec.ok) {
      ++checks->failed;
      if (checks->errors.size() < 4) {
        checks->errors.push_back("vm " + std::to_string(rec.index) + ": " + rec.error);
      }
    } else {
      ++checks->succeeded;
      layouts.push_back(rec.layout);
    }
  }
  // Layout uniqueness is the FGKASLR promise: plain KASLR draws from a few
  // hundred slide slots, so a run of hundreds of boots repeats slides by the
  // birthday bound, and a shared nokaslr layout is the point of that workload.
  if (wl.rando == RandoMode::kFgKaslr) {
    const VerifyReport report = CheckLayoutUniqueness(layouts);
    const uint64_t repeats = report.CountOf(Invariant::kDuplicateLayout);
    checks->succeeded -= repeats;
    checks->failed += repeats;
    for (const Finding& finding : report.findings()) {
      if (finding.severity == Severity::kError && checks->errors.size() < 4) {
        checks->errors.push_back(finding.message);
      }
    }
  }
}

void PrintResult(const JsonObject& detail, const Checks& checks, const JsonObject& metrics) {
  JsonObject result;
  result.Bool("correct", checks.problems.empty() && checks.failed == 0);
  result.Num("attempted", static_cast<double>(checks.attempted));
  result.Num("failed", static_cast<double>(checks.failed));
  result.Raw("metrics", metrics.str());
  std::printf("{\"detail\": %s}\n%s\n", detail.str().c_str(), result.str().c_str());
  std::fflush(stdout);
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& wl : kWorkloads) {
    if (name == wl.name) {
      return &wl;
    }
  }
  return nullptr;
}

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opts->workload = value;
    } else if (key == "--seed") {
      opts->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opts->seconds = std::atof(value);
    } else if (key == "--trace") {
      opts->trace = std::atoi(value) != 0;
    } else if (key == "--scale") {
      opts->scale = std::atof(value);
    } else if (key == "--rate") {
      opts->rate = std::atof(value);
    } else if (key == "--setups") {
      opts->setups = static_cast<uint32_t>(std::max(1, std::atoi(value)));
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && opts->seconds > 0 && opts->scale > 0 && opts->rate > 0;
}

// End-to-end metrics of an untraced pass. On launch_fgkaslr no guest runs,
// so a "boot" ends at the first guest instruction: boot_* there is the
// launch service time (queueing excluded). Launches there arrive at the
// fixed open-loop rate, so completions per second would only repeat it;
// boots_per_s is the workers' service capacity instead: launches completed
// per second of worker time they occupied (admission to teardown), times
// the number of workers.
void EndToEndMetrics(const Workload& wl, const Pass& pass, double setup_s, JsonObject* metrics) {
  const std::vector<double> launch = Collect(pass.vms, [&](const VmRecord& r) {
    return wl.full_boot ? r.launch_ms : r.latency_ms;
  });
  const std::vector<double> boot = Collect(pass.vms, [&](const VmRecord& r) {
    return wl.full_boot ? r.latency_ms : r.launch_ms;
  });
  metrics->Metric("launch_p50_ms", Percentile(launch, 50), "ms");
  metrics->Metric("launch_p90_ms", Percentile(launch, 90), "ms");
  metrics->Metric("boot_p50_ms", Percentile(boot, 50), "ms");
  metrics->Metric("boot_p90_ms", Percentile(boot, 90), "ms");
  double busy_s = 0;
  for (double ms : Collect(pass.vms, [](const VmRecord& r) { return r.cycle_ms; })) {
    busy_s += ms / 1000.0;
  }
  const double boots_per_s =
      wl.full_boot ? static_cast<double>(boot.size()) / pass.window_s
                   : Ratio(static_cast<double>(boot.size() * wl.workers), busy_s);
  metrics->Metric("boots_per_s", boots_per_s, "1/s");
  metrics->Metric("resident_mib_per_vm", Mean(Collect(pass.vms, [](const VmRecord& r) {
                    return static_cast<double>(r.dirty_bytes) / kMiB;
                  })),
                  "MiB");
  metrics->Metric("peak_rss_mib", static_cast<double>(pass.peak_rss) / kMiB, "MiB");
  metrics->Metric("setup_s", setup_s, "s");
}

struct TraceChecks {
  double span_sum_ratio = 0;
  double overhead_ms = 0;
  double overhead_pct = 0;
};

// Each traced boot must reproduce its untraced twin (same seed): the same
// layout wherever it came from the VM's own seed, the same checksum, and
// layer spans that add up to the untraced VM cycle.
TraceChecks CheckTracedPass(const Workload& wl, const Pass& pass, Checks* checks) {
  TraceChecks out;
  if (!wl.full_boot) {
    return out;  // launches are timed by the same calls traced or not
  }
  size_t compared = 0;
  for (size_t i = 0; i < std::min(pass.vms.size(), pass.traced.size()); ++i) {
    const VmRecord& a = pass.vms[i];
    const VmRecord& b = pass.traced[i];
    if (!a.ok || !b.ok || a.pool_hit || b.pool_hit) {
      continue;  // pooled layouts come from the pool's stream, not the VM seed
    }
    ++compared;
    if (a.index != b.index || a.layout.virt_slide != b.layout.virt_slide ||
        a.layout.fg_digest != b.layout.fg_digest ||
        a.layout.phys_load_addr != b.layout.phys_load_addr || a.checksum != b.checksum) {
      checks->problems.push_back("traced vm " + std::to_string(a.index) +
                                 " did not reproduce the untraced layout/checksum");
      break;
    }
  }
  if (!wl.pooled && compared == 0) {
    checks->problems.push_back("no traced boot had an untraced twin to compare");
  }
  // Means add up where medians need not: pooled boots are bimodal (pool
  // hit or inline render).
  const auto cycle = [](const VmRecord& r) { return r.cycle_ms; };
  out.span_sum_ratio =
      Ratio(Mean(Collect(pass.traced, [](const VmRecord& r) { return r.span_sum(); })),
            Mean(Collect(pass.vms, cycle)));
  const double untraced_cycle = Percentile(Collect(pass.vms, cycle), 50);
  out.overhead_ms = Percentile(Collect(pass.traced, cycle), 50) - untraced_cycle;
  out.overhead_pct = 100.0 * Ratio(out.overhead_ms, untraced_cycle);
  if (std::fabs(out.span_sum_ratio - 1.0) > kSpanTolerance) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "layer spans sum to %.3fx the untraced VM cycle (tolerance %.2f)",
                  out.span_sum_ratio, kSpanTolerance);
    checks->problems.push_back(buf);
  }
  return out;
}

// Per-layer metrics of a trace run, from its traced boots (the launches,
// on launch_fgkaslr) and the set-up they ran on. A layer that does not run
// on this workload reports 0.
void PerLayerMetrics(const Workload& wl, const Pass& pass, const KaslrTimes& kaslr,
                     double render_ms, const HostCalibration& host, const TraceChecks& tc,
                     JsonObject* m) {
  const std::vector<VmRecord>& recs = wl.full_boot ? pass.traced : pass.vms;
  const EnvStats& tp = wl.full_boot ? pass.twin_stats : pass.stats;
  const auto p50 = [&](auto fn) { return Percentile(Collect(recs, fn), 50); };
  const std::vector<double> load = Collect(recs, [](const VmRecord& r) { return r.load_ms; });
  std::vector<double> load_hit;
  std::vector<double> load_miss;
  for (const VmRecord& r : recs) {
    if (r.ok) {
      (r.pool_hit ? load_hit : load_miss).push_back(r.load_ms);
    }
  }
  m->Metric("vmm.loader.load_p50_ms", Percentile(load, 50), "ms");
  m->Metric("vmm.loader.load_p90_ms", Percentile(load, 90), "ms");
  m->Metric("vmm.loader.load_pool_hit_p50_ms", wl.pooled ? Percentile(load_hit, 50) : 0, "ms");
  m->Metric("vmm.loader.load_pool_miss_p50_ms", wl.pooled ? Percentile(load_miss, 50) : 0, "ms");

  m->Metric("kaslr.choose_ms", Percentile(kaslr.choose_ms, 50), "ms");
  m->Metric("kaslr.shuffle_ms", Percentile(kaslr.shuffle_ms, 50), "ms");
  m->Metric("kaslr.reloc_ms", Percentile(kaslr.reloc_ms, 50), "ms");
  m->Metric("kaslr.relocations", static_cast<double>(kaslr.relocations), "count");
  m->Metric("kaslr.sections_shuffled", static_cast<double>(kaslr.sections_shuffled), "count");

  m->Metric("vmm.template.get_ms", p50([](const VmRecord& r) { return r.template_ms; }), "ms");
  m->Metric("vmm.template.hit_rate",
            Ratio(static_cast<double>(tp.template_hits),
                  static_cast<double>(tp.template_hits + tp.template_misses)),
            "ratio");

  const auto mean_frames = [&](auto fn) {
    return Mean(Collect(recs, [&](const VmRecord& r) { return static_cast<double>(fn(r)); }));
  };
  m->Metric("base.frame_store.dirty_frames_load",
            mean_frames([](const VmRecord& r) { return r.mem.load_dirty_frames; }), "count");
  m->Metric("base.frame_store.dirty_frames_fg",
            mean_frames([](const VmRecord& r) { return r.mem.fg_dirty_frames; }), "count");
  m->Metric("base.frame_store.dirty_frames_reloc",
            mean_frames([](const VmRecord& r) { return r.mem.reloc_dirty_frames; }), "count");

  double insns = 0;
  double guest_ms = 0;
  double dispatches = 0;
  double shared = 0;
  double priv = 0;
  for (const VmRecord& r : recs) {
    if (r.ok) {
      insns += static_cast<double>(r.guest.instructions);
      guest_ms += r.guest_ms;
      dispatches += static_cast<double>(r.guest.block_cache_hits + r.guest.block_cache_misses);
      shared += static_cast<double>(r.guest.blocks_shared);
      priv += static_cast<double>(r.guest.blocks_private);
    }
  }
  m->Metric("isa.guest_run_ms", wl.full_boot ? p50([](const VmRecord& r) { return r.guest_ms; }) : 0,
            "ms");
  m->Metric("isa.guest_mips", Ratio(insns, guest_ms * 1000.0), "MIPS");
  m->Metric("isa.insns_per_dispatch", Ratio(insns, dispatches), "insn");
  m->Metric("isa.block_share_rate", Ratio(shared, shared + priv), "ratio");
  m->Metric("isa.shared_tier_hit_rate",
            Ratio(static_cast<double>(tp.shared.hits),
                  static_cast<double>(tp.shared.hits + tp.shared.misses)),
            "ratio");
  m->Metric("isa.shared_tier_blocks", static_cast<double>(tp.shared.blocks), "count");
  m->Metric("isa.shared_tier_tables", static_cast<double>(tp.shared.tables), "count");

  const double pool_hits = static_cast<double>(tp.pool_after.hits - tp.pool_before.hits);
  const double pool_misses = static_cast<double>(tp.pool_after.misses - tp.pool_before.misses);
  m->Metric("vmm.layout_pool.hit_rate", Ratio(pool_hits, pool_hits + pool_misses), "ratio");
  m->Metric("vmm.layout_pool.useful_render_frac",
            Ratio(static_cast<double>(tp.pool_after.hits),
                  static_cast<double>(tp.pool_after.rendered)),
            "ratio");
  m->Metric("vmm.layout_pool.render_ms", render_ms, "ms");

  const MemGovernor::Stats gov = tp.governor.value_or(MemGovernor::Stats{});
  const auto peak_mib = [&](MemCategory c) {
    return static_cast<double>(gov.categories[static_cast<size_t>(c)].high_water_bytes) / kMiB;
  };
  m->Metric("vmm.governor.admit_ms", wl.pooled ? p50([](const VmRecord& r) { return r.admit_ms; }) : 0,
            "ms");
  m->Metric("vmm.governor.reclaim_runs", static_cast<double>(gov.reclaim_runs), "count");
  m->Metric("vmm.governor.reclaimed_mib", static_cast<double>(gov.reclaimed_bytes) / kMiB, "MiB");
  m->Metric("vmm.governor.peak_guest_frames_mib", peak_mib(MemCategory::kGuestFrames), "MiB");
  m->Metric("vmm.governor.peak_template_images_mib", peak_mib(MemCategory::kTemplateImages), "MiB");
  m->Metric("vmm.governor.peak_layout_renders_mib", peak_mib(MemCategory::kLayoutRenders), "MiB");
  m->Metric("vmm.governor.peak_decode_tables_mib", peak_mib(MemCategory::kDecodeTables), "MiB");

  m->Metric("vmm.board_ms", p50([](const VmRecord& r) { return r.board_ms; }), "ms");
  m->Metric("vmm.teardown_ms", p50([](const VmRecord& r) { return r.teardown_ms; }), "ms");
  m->Metric("loadgen.late_p90_ms",
            wl.full_boot ? 0 : Percentile(Collect(recs, [](const VmRecord& r) { return r.late_ms; }), 90),
            "ms");
  m->Metric("host.memcpy_gbps", host.memcpy_gbps, "GB/s");
  m->Metric("host.crc32_gbps", host.crc32_gbps, "GB/s");
  m->Metric("trace.span_sum_ratio", tc.span_sum_ratio, "ratio");
  m->Metric("trace.overhead_ms", tc.overhead_ms, "ms");
  m->Metric("trace.overhead_pct", tc.overhead_pct, "%");
}

// launch_fgkaslr runs no guest, so after the window VM 0's seed is booted
// in full through MicroVm: it must come out with the layout the launch got
// and reach init with the kernel's checksum.
void CheckLaunchBoots(const Workload& wl, Env& env, const Pass& pass, const Options& opts,
                      Checks* checks) {
  if (pass.vms.empty() || !pass.vms.front().ok) {
    return;
  }
  const VmRecord& first = pass.vms.front();
  const std::unique_ptr<Storage> storage = MakeStorage(env.kernel.vmlinux, env.relocs_blob);
  MicroVm vm(*storage, VmConfig(wl, env, opts.seed + first.index));
  Result<BootReport> report = vm.Boot();
  ++checks->attempted;
  if (!report.ok() ||
      !CheckGuest(report->init_done, report->guest_stop, report->init_checksum,
                  env.kernel.expected_checksum)
           .ok()) {
    ++checks->failed;
    checks->errors.push_back("full boot of a launched layout failed");
    return;
  }
  ++checks->succeeded;
  if (report->choice.virt_slide != first.layout.virt_slide ||
      report->choice.phys_load_addr != first.layout.phys_load_addr ||
      report->fg_digest != first.layout.fg_digest) {
    checks->problems.push_back("full boot did not reproduce launch 0's layout");
  }
}

// The benchmark wires its own fleet (Env) so that it can time each layer's
// calls. A trace run checks that wiring against the product's fleet driver:
// a short RunBootStorm over the run's first seeds must give each VM the
// layout, checksum and private memory that the benchmark's untraced VM of
// the same seed got, and take the same share of its blocks from the shared
// decode tier. Pooled layouts depend on scheduling, so the pooled workload
// is not compared.
void CheckAgainstStorm(const Workload& wl, const Env& env, const Options& opts, const Pass& pass,
                       Checks* checks) {
  if (!wl.full_boot || wl.pooled) {
    return;
  }
  StormOptions storm;
  storm.vms = kStormCheckVms;
  storm.threads = wl.workers;
  storm.rando = wl.rando;
  storm.mem_size_bytes = kGuestMem;
  storm.seed_base = opts.seed;
  storm.expected_checksum = env.kernel.expected_checksum;
  storm.keep_layouts = true;
  Result<StormStats> stats =
      RunBootStorm(ByteSpan(env.kernel.vmlinux), ByteSpan(env.relocs_blob), storm);
  checks->attempted += storm.vms;
  if (!stats.ok()) {
    checks->failed += storm.vms;
    checks->errors.push_back("RunBootStorm: " + stats.status().ToString());
    return;
  }
  checks->succeeded += storm.vms;
  const std::vector<double>& resident_mib = stats->resident_mb.samples();
  double shared = 0;
  double priv = 0;
  for (size_t i = 0; i < std::min<size_t>(storm.vms, pass.vms.size()); ++i) {
    const VmRecord& rec = pass.vms[i];
    const LayoutIdentity& layout = stats->layouts[i];
    if (!rec.ok || rec.index != i || rec.layout.virt_slide != layout.virt_slide ||
        rec.layout.phys_load_addr != layout.phys_load_addr ||
        std::fabs(static_cast<double>(rec.dirty_bytes) / kMiB - resident_mib[i]) > 1e-9) {
      checks->problems.push_back("vm " + std::to_string(i) +
                                 " differs from RunBootStorm's boot of the same seed");
      return;
    }
    shared += static_cast<double>(rec.guest.blocks_shared);
    priv += static_cast<double>(rec.guest.blocks_private);
  }
  if (pass.vms.size() >= storm.vms &&
      std::fabs(Ratio(shared, shared + priv) - stats->block_share_rate()) > 0.02) {
    checks->problems.push_back("decode sharing differs from RunBootStorm's");
  }
}

int Main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: fleetbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--scale X] [--rate R] [--setups K]\n");
    return 2;
  }
  const Workload* found = FindWorkload(opts.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "fleetbench: unknown workload '%s'\n", opts.workload.c_str());
    return 2;
  }
  const Workload& wl = *found;
  const auto fail = [](const Status& status, const char* what) {
    std::fprintf(stderr, "fleetbench: %s: %s\n", what, status.ToString().c_str());
    return 1;
  };

  const HostCalibration host = CalibrateHost();
  uint64_t budget = 0;
  if (wl.pooled) {
    Result<uint64_t> sized = PooledBudgetFor(wl, opts);
    if (!sized.ok()) {
      return fail(sized.status(), "budget sizing");
    }
    budget = *sized;
  }

  // Set-up, repeated: setup_s is the median; the last one serves the run.
  std::vector<double> setup_times;
  std::unique_ptr<Env> env;
  for (uint32_t k = 0; k < opts.setups; ++k) {
    env.reset();
    double seconds = 0;
    Result<std::unique_ptr<Env>> made = SetUp(wl, opts, budget, &seconds);
    if (!made.ok()) {
      return fail(made.status(), "set-up");
    }
    env = std::move(*made);
    setup_times.push_back(seconds);
  }

  Checks checks;
  JsonObject detail;
  detail.Str("workload", wl.name);
  detail.Num("seed", static_cast<double>(opts.seed));
  detail.Bool("trace", opts.trace);
  detail.Num("host_memcpy_gbps", host.memcpy_gbps);
  detail.Num("host_crc32_gbps", host.crc32_gbps);
  detail.Num("governor_budget_mib", static_cast<double>(budget) / kMiB);
  detail.Str("expected_checksum", std::to_string(env->kernel.expected_checksum));
  // A trace run boots every seed twice, untraced on this set-up and traced
  // on an independent twin set-up (see Runner).
  std::unique_ptr<Env> twin;
  if (opts.trace && wl.full_boot) {
    double unused = 0;
    Result<std::unique_ptr<Env>> made =
        SetUp(wl, opts, budget, &unused, env->refill.has_value() ? &*env->refill : nullptr);
    if (!made.ok()) {
      return fail(made.status(), "twin set-up");
    }
    twin = std::move(*made);
  }
  const Pass pass = Runner(wl, opts, *env, twin.get()).Run(opts.seconds);
  CheckVms(wl, pass.sent, pass.vms, &checks);
  if (!wl.full_boot) {
    CheckLaunchBoots(wl, *env, pass, opts, &checks);
    const double late_p90 =
        Percentile(Collect(pass.vms, [](const VmRecord& r) { return r.late_ms; }), 90);
    detail.Num("late_p90_ms", late_p90);
    if (late_p90 > kLateBoundMs) {
      // The backlog grew: latencies of this run describe the queue, not
      // the system at the stated rate.
      checks.problems.push_back("invalid: open-loop generator ran late beyond its bound");
    }
  }
  detail.Num("guest_p50_ms",
             Percentile(Collect(pass.vms, [](const VmRecord& r) { return r.guest_ms; }), 50));
  detail.Num("cycle_p50_ms",
             Percentile(Collect(pass.vms, [](const VmRecord& r) { return r.cycle_ms; }), 50));
  detail.Num("samples", static_cast<double>(pass.vms.size()));
  detail.Num("window_s", pass.window_s);
  detail.Str("layout_digest", std::to_string(LayoutDigest(pass.vms)));

  JsonObject metrics;
  if (!opts.trace) {
    EndToEndMetrics(wl, pass, Percentile(setup_times, 50), &metrics);
  } else {
    CheckVms(wl, twin != nullptr ? pass.sent : 0, pass.traced, &checks);
    const TraceChecks tc = CheckTracedPass(wl, pass, &checks);
    CheckAgainstStorm(wl, *env, opts, pass, &checks);
    Env& traced_env = twin != nullptr ? *twin : *env;
    KaslrTimes kaslr;
    if (wl.rando != RandoMode::kNone) {
      std::vector<uint64_t> seeds;
      for (uint64_t k = 0; k < kKaslrSamples; ++k) {
        seeds.push_back(wl.pooled ? LayoutPool::DeriveLayoutSeed(opts.seed, k) : opts.seed + k);
      }
      Result<KaslrTimes> timed = TimeKaslr(wl, traced_env, seeds);
      if (!timed.ok()) {
        return fail(timed.status(), "kaslr direct calls");
      }
      kaslr = std::move(*timed);
      // The direct calls reproduce what the loader did for the same seeds.
      for (const VmRecord& rec : wl.full_boot ? pass.traced : pass.vms) {
        if (!wl.pooled && rec.ok && rec.index < kaslr.layouts.size() &&
            (rec.layout.virt_slide != kaslr.layouts[rec.index].virt_slide ||
             rec.layout.fg_digest != kaslr.layouts[rec.index].fg_digest)) {
          checks.problems.push_back("kaslr direct calls disagree with the loader's layout");
          break;
        }
      }
    }
    double render_ms = 0;
    if (wl.pooled) {
      Result<double> rendered = TimePoolRender(wl, traced_env, opts);
      if (!rendered.ok()) {
        return fail(rendered.status(), "pool render");
      }
      render_ms = *rendered;
    }
    detail.Num("traced_samples", static_cast<double>(pass.traced.size()));
    detail.Num("span_sum_tolerance", kSpanTolerance);
    PerLayerMetrics(wl, pass, kaslr, render_ms, host, tc, &metrics);
  }
  for (size_t i = 0; i < checks.problems.size(); ++i) {
    detail.Str("problem_" + std::to_string(i), checks.problems[i]);
  }
  for (size_t i = 0; i < checks.errors.size(); ++i) {
    detail.Str("error_" + std::to_string(i), checks.errors[i]);
  }
  detail.Num("succeeded", static_cast<double>(checks.succeeded));
  PrintResult(detail, checks, metrics);
  return checks.problems.empty() && checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace imk::fleetbench

int main(int argc, char** argv) { return imk::fleetbench::Main(argc, argv); }

#!/usr/bin/env python3
"""Tests of the fleet benchmark itself, run on a small kernel and short windows.

Run from the root of a checkout:
    python3 fleetbench/test_fleetbench.py

The first run builds the benchmark (see run.py).
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
FAST = ["--scale", "0.05", "--setups", "1"]

LAUNCH = {"launch_fgkaslr"}
BOOTS = {"boot_nokaslr", "boot_kaslr", "boot_fgkaslr_pooled"}
RANDOMIZED = {"launch_fgkaslr", "boot_kaslr", "boot_fgkaslr_pooled"}
FG = {"launch_fgkaslr", "boot_fgkaslr_pooled"}
POOLED = {"boot_fgkaslr_pooled"}
EVERY = set(WORKLOADS)

# Per-layer metrics that must be nonzero on the workloads where their layer
# runs (all of them must be present everywhere).
RUNS_ON = {
    "vmm.loader.load_p50_ms": EVERY,
    "vmm.loader.load_p90_ms": EVERY,
    "vmm.loader.load_pool_hit_p50_ms": POOLED,
    "kaslr.choose_ms": RANDOMIZED,
    "kaslr.shuffle_ms": FG,
    "kaslr.reloc_ms": RANDOMIZED,
    "kaslr.relocations": RANDOMIZED,
    "kaslr.sections_shuffled": FG,
    "vmm.template.get_ms": EVERY,
    "vmm.template.hit_rate": EVERY,
    "base.frame_store.dirty_frames_fg": LAUNCH,
    "base.frame_store.dirty_frames_reloc": {"launch_fgkaslr", "boot_kaslr"},
    "isa.guest_run_ms": BOOTS,
    "isa.guest_mips": BOOTS,
    "isa.insns_per_dispatch": BOOTS,
    "isa.block_share_rate": {"boot_nokaslr", "boot_kaslr"},
    "isa.shared_tier_blocks": BOOTS,
    "vmm.layout_pool.hit_rate": POOLED,
    "vmm.layout_pool.useful_render_frac": POOLED,
    "vmm.layout_pool.render_ms": POOLED,
    "vmm.governor.admit_ms": POOLED,
    "vmm.governor.peak_guest_frames_mib": POOLED,
    "vmm.governor.peak_template_images_mib": POOLED,
    "vmm.governor.peak_layout_renders_mib": POOLED,
    "vmm.governor.peak_decode_tables_mib": POOLED,
    "vmm.board_ms": BOOTS,
    "vmm.teardown_ms": EVERY,
    "loadgen.late_p90_ms": LAUNCH,
    "host.memcpy_gbps": EVERY,
    "host.crc32_gbps": EVERY,
    "trace.span_sum_ratio": BOOTS,
}


class FleetBenchTest(unittest.TestCase):
    binary = None

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def bench(self, workload, seed=1, seconds=1.0, trace=0, extra=()):
        """Runs one workload; returns (exit code, detail, result)."""
        args = [self.binary, "--workload", workload, "--seed", str(seed), "--seconds",
                str(seconds), "--trace", str(trace)] + FAST + list(extra)
        proc = subprocess.run(args, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
        lines = proc.stdout.strip().splitlines()
        self.assertGreaterEqual(len(lines), 2, proc.stderr)
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        return proc.returncode, detail, result

    def test_every_metric_present_with_unit(self):
        for workload in WORKLOADS:
            for trace, spec in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, detail, result = self.bench(workload, trace=trace)
                    self.assertEqual(code, 0, detail)
                    self.assertTrue(result["correct"], detail)
                    self.assertEqual(result["failed"], 0, detail)
                    metrics = result["metrics"]
                    self.assertEqual(sorted(metrics), sorted(m["name"] for m in spec))
                    for m in spec:
                        self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
                        value = metrics[m["name"]]["value"]
                        if trace == 0:
                            self.assertGreater(value, 0, m["name"])
                        elif workload in RUNS_ON.get(m["name"], ()):
                            self.assertGreater(value, 0, m["name"])

    def test_layout_sequence_follows_seed(self):
        for workload in ("launch_fgkaslr", "boot_kaslr"):
            with self.subTest(workload=workload):
                first = self.bench(workload, seed=5)[1]["layout_digest"]
                again = self.bench(workload, seed=5)[1]["layout_digest"]
                other = self.bench(workload, seed=6)[1]["layout_digest"]
                self.assertEqual(first, again)
                self.assertNotEqual(first, other)

    def test_launches_are_accounted(self):
        # attempted comes from the load generator, succeeded from the records
        # that came back ok, failed from the others and repeated layouts.
        for workload in ("launch_fgkaslr", "boot_kaslr", "boot_fgkaslr_pooled"):
            with self.subTest(workload=workload):
                _, detail, result = self.bench(workload, trace=1)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["attempted"], detail["succeeded"] + result["failed"])

    def test_late_open_loop_run_is_invalid(self):
        # Far beyond what 4 workers can launch: the generator falls behind.
        code, detail, result = self.bench("launch_fgkaslr", seconds=1.5,
                                           extra=("--rate", "20000"))
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertTrue(any(v.startswith("invalid") for k, v in detail.items()
                            if k.startswith("problem")), detail)


if __name__ == "__main__":
    unittest.main()

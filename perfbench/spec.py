"""What the benchmark measures: workloads, metrics, units and bounds.

BENCHMARK.json is generated from this file (`python3 perfbench/run.py
--write-manifest`); the self-test checks that the harness emits exactly
these metrics with these units. Each per-layer metric also names the
end-to-end metric and workload it is expected to move; BENCHMARK.json has
no room for that, so it lives here.
"""

RUN_SECONDS = 20

WORKLOADS = [
    ("net_read",
     "Only workload on sockets: open-loop pipelined reads over a 2-group DIJ "
     "server with a warm, partly hitting proof cache (Zipf s=1, pool 4x "
     "capacity); nothing signs."),
    ("methods",
     "The paper's evaluation as a serving loop: DIJ/FULL/LDM/HYP answer and "
     "verify in process, single threaded, no cache or updates; net and owner "
     "layers idle."),
    ("write_mix",
     "Owner writes beside reads on 28,867 nodes: open-loop re-weights at "
     "200/s, WAL with fsync on every append in a scratch dir, 2 closed-loop "
     "verified readers."),
]

# (name, unit, better, bound). Every workload emits every one of these;
# what each measures per workload is in README.md.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("rss_mb", "MB", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("throughput_qps", "1/s", "higher", 0.25),
    ("proof_kb_mean", "KB", "lower", 0.10),
]

METHODS = ("dij", "full", "ldm", "hyp")

# (name, unit, better, moves). Traced runs emit all of them; a layer a
# workload does not exercise reads 0 there.
PER_LAYER = [
    ("failed_frac", "ratio", "lower", "every metric; must be 0"),
    ("net.batch_coalescing", "ratio", "higher",
     "throughput_qps and latency_p50_ms on net_read (queries_received / "
     "batches_dispatched)"),
    ("net.queries_received", "count", "higher", "base of net.batch_coalescing"),
    ("net.batches_dispatched", "count", "lower", "base of net.batch_coalescing"),
    ("net.bytes_per_answer", "B", "lower", "latency_p50_ms on net_read"),
    ("net.backpressure_stalls", "count", "lower", "latency_p50_ms on net_read"),
    ("net.proof_bytes_copied", "B", "lower", "must be 0 (zero-copy serving)"),
    ("gen.late_p99_ms", "ms", "lower",
     "validates the net_read reading: how late the generator sent"),
    ("gen.verify_ms.p50", "ms", "lower",
     "generator client CPU on net_read, kept out of its latency"),
    ("cache.hit_ratio", "ratio", "higher",
     "latency_p50_ms on net_read, throughput_qps on write_mix "
     "(hits / (hits + misses))"),
    ("cache.hits", "count", "higher", "base of cache.hit_ratio"),
    ("cache.misses", "count", "lower", "base of cache.hit_ratio"),
    ("shard.answer_us_mean", "us", "lower",
     "latency_p50_ms and throughput_qps on net_read"),
    ("shard.load_skew", "ratio", "lower",
     "latency_p50_ms on net_read (max / mean shard queries)"),
    ("read_ms.p50", "ms", "lower",
     "throughput_qps on write_mix (Answer latency beside rotations)"),
    ("read_ms.p99", "ms", "lower", "throughput_qps on write_mix"),
    ("crypto.rsa_verify_us", "us", "lower",
     "throughput_qps on methods, most of all verified_qps.full"),
    ("crypto.rsa_sign_ms", "ms", "lower", "latency_p50_ms on write_mix"),
    ("crypto.sign_ops_per_rotation", "count", "lower", "must be 1 on write_mix"),
    ("crypto.verify_ops_per_answer", "count", "lower",
     "throughput_qps on methods and write_mix (exact count)"),
    ("merkle.level_rehash_us", "us", "lower",
     "latency_p50_ms on write_mix; verify_ms.* on methods"),
    ("graph.search_ms.p50", "ms", "lower",
     "answer_ms.p50.dij and so throughput_qps on methods"),
    ("setup.keygen_s", "s", "lower", "setup_s"),
    ("setup.graph_s", "s", "lower", "setup_s"),
    ("setup.workload_s", "s", "lower", "setup_s"),
    ("owner.rotation_ms.p50", "ms", "lower", "latency_p50_ms on write_mix"),
    ("owner.rotation_ms.p99", "ms", "lower",
     "update_visible_p99_ms (printed) on write_mix"),
    ("owner.busy_frac", "ratio", "lower", "latency_p50_ms on write_mix"),
    ("owner.coalescing_ratio", "ratio", "higher",
     "latency_p50_ms on write_mix (flushed ops / rotations)"),
    ("owner.rotations", "count", "lower", "base of owner.coalescing_ratio"),
    ("owner.clone_bytes_per_rotation", "B", "lower",
     "throughput_qps and rss_mb on write_mix"),
    ("owner.live_snapshots_max", "count", "lower",
     "throughput_qps and rss_mb on write_mix"),
    ("wal.bytes_per_update", "B", "lower",
     "update_visible_p99_ms (printed) on write_mix"),
    ("wal.append_fsync_ms", "ms", "lower",
     "update_visible_p99_ms (printed) on write_mix"),
    ("self_ms_per_s.bench", "ms/s", "lower", "harness self time (span tree)"),
    ("self_ms_per_s.net", "ms/s", "lower", "latency_p50_ms on net_read"),
    ("self_ms_per_s.core", "ms/s", "lower",
     "throughput_qps on methods and write_mix"),
    ("self_ms_per_s.crypto", "ms/s", "lower", "layer probes"),
    ("self_ms_per_s.merkle", "ms/s", "lower", "layer probes"),
    ("self_ms_per_s.graph", "ms/s", "lower", "layer probes"),
    ("self_ms_per_s.owner", "ms/s", "lower", "latency_p50_ms on write_mix"),
    ("trace.spans", "count", "higher", "base of the self-time rates"),
    ("trace.overhead.latency_p50_ms", "ratio", "lower",
     "tracing overhead: traced / untraced latency_p50_ms - 1"),
    ("trace.overhead.throughput_qps", "ratio", "higher",
     "tracing overhead: traced / untraced throughput - 1"),
]
for _m in METHODS:
    PER_LAYER += [
        ("answer_ms.p50." + _m, "ms", "lower",
         "verified_qps.%s, so throughput_qps on methods" % _m),
        ("verify_ms.p50." + _m, "ms", "lower",
         "verified_qps.%s, so throughput_qps on methods" % _m),
        ("verified_qps." + _m, "1/s", "higher", "throughput_qps on methods"),
        ("verify.rsa_share." + _m, "ratio", "lower",
         "verify_ms.p50.%s (RsaVerify time / verify time)" % _m),
        ("proof.sp_items." + _m, "count", "lower",
         "proof_kb_mean on methods (exact count)"),
        ("proof.t_items." + _m, "count", "lower",
         "proof_kb_mean on methods (exact count)"),
        ("setup.ads_s." + _m, "s", "lower", "setup_s"),
    ]


def manifest():
    """The BENCHMARK.json object."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }

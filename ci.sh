#!/usr/bin/env sh
# Offline CI gate: build, test, lint. No network access required — the
# workspace has zero external dependencies.
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> oracle, epoch, pin, decode-path and allocation tests are still in the suite that just ran"
# -q prints no names, so a renamed or deleted test would pass unnoticed.
cargo test -q --workspace -- --list > /tmp/cdpu_test_list.txt 2>/dev/null
for name in \
    package_merge_matches_oracle_uniform \
    package_merge_matches_oracle_tie_heavy \
    package_merge_matches_oracle_all_ones \
    package_merge_matches_oracle_zero_heavy \
    package_merge_matches_oracle_power_of_two \
    package_merge_matches_oracle_geometric \
    package_merge_matches_oracle_edge_cases \
    epoch_scratch_interleaved_parses_match_fresh_and_reference \
    epoch_scratch_wrap_clears_and_agrees \
    compressed_streams_are_pinned \
    hash_table_parses_are_pinned \
    chain_parses_are_pinned \
    entropy_modes_are_pinned \
    hash_table_grid_matches_reference \
    table_matcher_grid_equivalence \
    hash_chain_grid_matches_reference \
    chain_matcher_grid_equivalence \
    short_stream_at_a_wide_window_sizes_links_by_its_length \
    writers_match_a_bit_at_a_time_model \
    encode_bytes_matches_encode_symbol_and_rejects_absent_bytes \
    execute_outcomes_are_pinned \
    chain_links_sized_by_input_match_reference \
    splitter_emits_short_matches_as_literals \
    huffman_table_build_allocates_a_handful_of_arrays \
    small_zstd_call_allocates_per_stage_not_per_symbol \
    warm_decompress_into_allocates_per_block_only \
    fifteen_bit_codes_resolve_through_the_second_level \
    literal_runs_cross_the_hand_over_at_every_alignment \
    overrun_at_every_position_of_a_literal_run \
    hostile_literal_flood_is_cut_off_at_the_declared_length \
    symbols_outside_the_deflate_alphabets \
    unmapped_half_of_a_single_symbol_table \
    staging_stops_at_the_declared_length \
    prefix_then_checked_loop_matches_reference_walk \
    overlapping_copies_at_every_small_offset_and_length \
    copies_are_counted_once_each \
    decode_outcomes_are_pinned \
    gipfeli_literal_runs_cross_the_window_hand_over \
    sharded_spans_survive_flush_during_thread_teardown \
    zstd_decode_outcomes_are_pinned \
    speculative_literal_lanes_match_serial \
    baked_tables_match_the_fse_decode_table \
    hostile_offset_code_is_an_error_not_a_panic \
    literal_count_overflow_is_an_error_not_a_panic; do
    if ! grep -q "${name}: test\$" /tmp/cdpu_test_list.txt; then
        echo "FAIL: test $name is no longer in the workspace suite" >&2
        exit 1
    fi
done

echo "==> no offline-dead bench targets, one algorithm ladder in the serving tier"
if ls -d crates/*/benches >/dev/null 2>&1 ||
    [ "$(cat crates/serve/src/*.rs | grep -c 'Algorithm::Snappy =>')" -gt 1 ]; then
    echo "FAIL: crates/*/benches is back, or cdpu_serve grew a second per-algorithm ladder" >&2
    exit 1
fi

echo "==> one hash-table loop: the set-associative insert exists once outside the reference oracle"
if [ "$(cat crates/lz77/src/matcher.rs crates/lz77/src/stream.rs crates/lz77/src/hash.rs | grep -c 'copy_within(0..ways - 1')" -ne 1 ]; then
    echo "FAIL: cdpu_lz77 grew a second hash-table insert beside matcher::insert" >&2
    exit 1
fi

echo "==> one hash-chain walk: no stepped chain parser and no hash_at call beside matcher::run_hash_chain"
if grep -nE 'step_chain|ChainProbe|hash_at\(' crates/lz77/src/matcher.rs crates/lz77/src/stream.rs; then
    echo "FAIL: cdpu_lz77 grew a second chain walk or a hash_at call in the chain paths" >&2
    exit 1
fi

echo "==> one decode loop per byte-aligned codec: no per-byte state machine beside the element loops"
if grep -nwE 'CopyOff|LitExt|ShortOff|LongOff|MatchOff|MatchExt' crates/snappy/src/stream.rs crates/lite/src/stream.rs; then
    echo "FAIL: a streaming decoder grew its own element parser beside the one-shot element loop" >&2
    exit 1
fi

echo "==> one sequence decode loop: no per-field FSE stepping beside the baked tables"
if grep -nE 'transition_width|FseStreamDecoder' crates/zstd/src/block.rs; then
    echo "FAIL: crates/zstd/src/block.rs steps FSE states field by field again" >&2
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> repo benchmark smoke (benchmark/smoke.sh: every public entry it links still builds and runs)"
# The benchmark is a package of its own, which the workspace build never
# sees: a renamed entry point would otherwise fail the driver first.
benchmark/smoke.sh > /tmp/cdpu_benchmark_smoke.txt 2>&1 || {
    tail -n 40 /tmp/cdpu_benchmark_smoke.txt >&2
    echo "FAIL: benchmark/smoke.sh" >&2
    exit 1
}

echo "==> figures determinism smoke (serial vs parallel at tiny scale)"
./target/release/figures --tiny --jobs 1 > /tmp/cdpu_figures_serial.txt
./target/release/figures --tiny > /tmp/cdpu_figures_parallel.txt
if ! diff -q /tmp/cdpu_figures_serial.txt /tmp/cdpu_figures_parallel.txt; then
    echo "FAIL: parallel figures output differs from serial" >&2
    exit 1
fi

echo "==> serving-tier determinism smoke (serial vs parallel at tiny scale)"
./target/release/figures --serve --tiny --jobs 1 > /tmp/cdpu_serve_serial.txt
./target/release/figures --serve --tiny > /tmp/cdpu_serve_parallel.txt
if ! diff -q /tmp/cdpu_serve_serial.txt /tmp/cdpu_serve_parallel.txt; then
    echo "FAIL: parallel serve figures output differs from serial" >&2
    exit 1
fi

echo "==> serving-engine determinism smoke (serial vs parallel at tiny scale)"
./target/release/figures --served --tiny --jobs 1 --served-out /tmp/cdpu_served_serial_file.txt > /tmp/cdpu_served_serial.txt
./target/release/figures --served --tiny --served-out /tmp/cdpu_served_parallel_file.txt > /tmp/cdpu_served_parallel.txt
if ! diff -q /tmp/cdpu_served_serial.txt /tmp/cdpu_served_parallel.txt; then
    echo "FAIL: parallel served figures output differs from serial" >&2
    exit 1
fi
if ! diff -q /tmp/cdpu_served_serial_file.txt /tmp/cdpu_served_parallel_file.txt; then
    echo "FAIL: parallel served report file differs from serial" >&2
    exit 1
fi
if ! grep -q 'deviation' /tmp/cdpu_served_serial_file.txt; then
    echo "FAIL: served report carries no sim-vs-engine deviation column" >&2
    exit 1
fi

echo "==> serving-engine benchmark smoke (tiny)"
./target/release/bench --served --tiny --out /tmp/cdpu_bench_served.json
for key in '"served_batch_speedup"' '"served_drr_fairness_speedup"' '"closed_loop"' '"saturation"'; do
    if ! grep -q "$key" /tmp/cdpu_bench_served.json; then
        echo "FAIL: served benchmark missing $key" >&2
        exit 1
    fi
done

echo "==> observability determinism smoke (serial vs parallel at tiny scale)"
rm -rf /tmp/cdpu_obs_serial /tmp/cdpu_obs_parallel
./target/release/figures --obs --tiny --jobs 1 --obs-dir /tmp/cdpu_obs_serial > /tmp/cdpu_obs_serial.txt
./target/release/figures --obs --tiny --obs-dir /tmp/cdpu_obs_parallel > /tmp/cdpu_obs_parallel.txt
if ! diff -q /tmp/cdpu_obs_serial.txt /tmp/cdpu_obs_parallel.txt; then
    echo "FAIL: parallel obs figures output differs from serial" >&2
    exit 1
fi
if ! diff -rq /tmp/cdpu_obs_serial /tmp/cdpu_obs_parallel; then
    echo "FAIL: parallel obs report files differ from serial" >&2
    exit 1
fi
for f in timelines.md slo.md exemplars.md; do
    if ! [ -s "/tmp/cdpu_obs_serial/$f" ]; then
        echo "FAIL: obs figures did not write $f" >&2
        exit 1
    fi
done

echo "==> telemetry export validity smoke (tiny)"
# Run from a scratch cwd so the committed results/telemetry/ stays intact.
TELEMETRY_TMP="$(mktemp -d)"
BIN="$(pwd)/target/release/figures"
(cd "$TELEMETRY_TMP" && "$BIN" serve-load --tiny --telemetry > /dev/null)
for f in snapshot.md metrics.jsonl trace.json; do
    if ! [ -s "$TELEMETRY_TMP/results/telemetry/$f" ]; then
        echo "FAIL: telemetry export did not write $f" >&2
        exit 1
    fi
done
if ! grep -q '"traceEvents"' "$TELEMETRY_TMP/results/telemetry/trace.json"; then
    echo "FAIL: trace.json is not a Chrome trace document" >&2
    exit 1
fi
if ! grep -q '"type":"histogram"' "$TELEMETRY_TMP/results/telemetry/metrics.jsonl"; then
    echo "FAIL: metrics.jsonl carries no histogram records" >&2
    exit 1
fi
rm -rf "$TELEMETRY_TMP"

echo "==> perf-regression gate smoke (tiny, advisory)"
./target/release/bench --regress --tiny --out /tmp/cdpu_regress_tiny.md
if ! grep -q '^# Perf-regression gate' /tmp/cdpu_regress_tiny.md; then
    echo "FAIL: regression gate wrote no report" >&2
    exit 1
fi

echo "==> kernel microbenchmark smoke (tiny)"
./target/release/bench --kernels --tiny --out /tmp/cdpu_bench_kernels.json
if ! grep -q '"min_profile_speedup"' /tmp/cdpu_bench_kernels.json; then
    echo "FAIL: kernels benchmark wrote no speedup summary" >&2
    exit 1
fi
if ! grep -q '"entropy_encode"' /tmp/cdpu_bench_kernels.json; then
    echo "FAIL: kernels benchmark wrote no entropy encode section" >&2
    exit 1
fi
for key in '"lz4_class"' '"chunked_compress_speedup"'; do
    if ! grep -q "$key" /tmp/cdpu_bench_kernels.json; then
        echo "FAIL: kernels benchmark missing $key" >&2
        exit 1
    fi
done

echo "==> decompression kernel microbenchmark smoke (tiny)"
./target/release/bench --dekernels --tiny --out /tmp/cdpu_bench_dekernels.json
if ! grep -q '"min_decompress_speedup"' /tmp/cdpu_bench_dekernels.json; then
    echo "FAIL: dekernels benchmark wrote no speedup summary" >&2
    exit 1
fi
if ! grep -q '"entropy_interleave_speedup"' /tmp/cdpu_bench_dekernels.json; then
    echo "FAIL: dekernels benchmark wrote no entropy interleave speedup" >&2
    exit 1
fi
for key in '"lz4-class"' '"chunked_decode_speedup"'; do
    if ! grep -q "$key" /tmp/cdpu_bench_dekernels.json; then
        echo "FAIL: dekernels benchmark missing $key" >&2
        exit 1
    fi
done

echo "==> streaming benchmark smoke (tiny)"
# The bench itself asserts pipelined output is bit-identical to serial
# before timing anything; a divergence aborts the run here.
./target/release/bench --streaming --tiny --out /tmp/cdpu_bench_streaming.json
for key in '"streaming_pipeline_speedup"' '"stream_scratch_peak_bytes"' '"modeled"' '"wall_clock"' '"scratch"'; do
    if ! grep -q "$key" /tmp/cdpu_bench_streaming.json; then
        echo "FAIL: streaming benchmark missing $key" >&2
        exit 1
    fi
done

echo "==> streaming determinism smoke (two runs, deterministic fields identical)"
./target/release/bench --streaming --tiny --out /tmp/cdpu_bench_streaming2.json
grep -v 'mb_s' /tmp/cdpu_bench_streaming.json > /tmp/cdpu_bench_streaming.det
grep -v 'mb_s' /tmp/cdpu_bench_streaming2.json > /tmp/cdpu_bench_streaming2.det
if ! diff -q /tmp/cdpu_bench_streaming.det /tmp/cdpu_bench_streaming2.det; then
    echo "FAIL: streaming benchmark deterministic fields differ between runs" >&2
    exit 1
fi

echo "==> chunked figure determinism smoke (serial vs parallel at tiny scale)"
./target/release/figures chunked --tiny --jobs 1 > /tmp/cdpu_chunked_serial.txt
./target/release/figures chunked --tiny > /tmp/cdpu_chunked_parallel.txt
if ! diff -q /tmp/cdpu_chunked_serial.txt /tmp/cdpu_chunked_parallel.txt; then
    echo "FAIL: parallel chunked figure output differs from serial" >&2
    exit 1
fi
if ! grep -q 'bit-identical: 5/5' /tmp/cdpu_chunked_serial.txt; then
    echo "FAIL: chunked figure frame decode parity check did not pass" >&2
    exit 1
fi

echo "==> entropy codec smoke (rANS + interleaved roundtrips, reference parity)"
./target/release/bench --entropy-smoke

echo "==> entropy figure smoke (tiny)"
./target/release/figures entropy --tiny > /tmp/cdpu_entropy_fig.txt
if ! grep -q 'rans x4' /tmp/cdpu_entropy_fig.txt; then
    echo "FAIL: entropy figure missing the rANS rows" >&2
    exit 1
fi

echo "CI OK"

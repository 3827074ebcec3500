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
    hand_built_parse_frames_are_pinned \
    entropy_edge_frames_are_pinned \
    table_mappers_match_the_base_walk \
    raw_precheck_is_sound \
    normalize_matches_the_one_step_oracle \
    small_random_zstd_call_builds_no_huffman_table \
    every_stream_encoder_keeps_the_push_finish_contract \
    stream_decoder_traces_are_pinned \
    scratch_counts_the_open_block \
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
    flate_decode_outcomes_are_pinned \
    zstd_dict_decode_outcomes_are_pinned \
    speculative_literal_lanes_match_serial \
    baked_tables_match_the_fse_decode_table \
    hostile_offset_code_is_an_error_not_a_panic \
    literal_count_overflow_is_an_error_not_a_panic \
    block_payload_length_overflow_is_an_error_not_a_panic \
    serve_reports_are_pinned \
    a_panicking_task_resumes_in_recv_and_the_pool_drops \
    model_prices_are_pinned \
    flate_compress_sim_encodes_the_hardware_parse \
    snappy_compress_sim_caps_history_at_the_format_window \
    dse_sweeps_are_pinned \
    hw_profile_is_placement_independent; do
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

echo "==> one streaming decoder per frame family: ElementStream and BlockStream in cdpu_lz77::stream"
# Each codec names a core over a zero-sized format type; the literal copy
# of every element loop is cdpu_lz77::window::extend_literals. The K-way
# FSE coder's tail cursor and the unreached tco projection stay deleted.
if grep -rnE 'pub struct (Snappy|Lzo|Lz4|Zstd|Flate)StreamDecoder\b' crates --include='*.rs' ||
    grep -rnE '\btrait [A-Za-z]*Format\b' crates/lite/src ||
    grep -rn 'fn extend_literals' crates --include='*.rs' | grep -v '^crates/lz77/' ||
    grep -rn 'ReverseTailCursor' crates --include='*.rs' ||
    grep -rnE '\bmod tco\b' crates --include='*.rs'; then
    echo "FAIL: a codec-owned stream decoder, element format trait, literal copy, tail cursor or tco module is back" >&2
    exit 1
fi

echo "==> one sequence decode loop: no per-field FSE stepping beside the baked tables"
if grep -nE 'transition_width|FseStreamDecoder' crates/zstd/src/block.rs; then
    echo "FAIL: crates/zstd/src/block.rs steps FSE states field by field again" >&2
    exit 1
fi

echo "==> table-driven sequence codes: no base walk outside the test oracles"
for f in crates/zstd/src/codes.rs crates/flate/src/codes.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n 'partition_point'; then
        echo "FAIL: $f maps values to codes by a base walk again" >&2
        exit 1
    fi
done

echo "==> one block-frame reader: no frame state machine or slice block walk in the zstd/flate decoders"
if grep -nE 'enum DecState|read_u64\(&frame\[pos\.\.\]\)' \
    crates/zstd/src/lib.rs crates/zstd/src/dict.rs crates/zstd/src/stream.rs \
    crates/flate/src/lib.rs crates/flate/src/stream.rs; then
    echo "FAIL: a zstd or flate decoder walks the block frame beside cdpu_util::stream::BlockFrameReader" >&2
    exit 1
fi

echo "==> one block-frame writer and one stream-encoder driver under every LZ77-fed encoder"
# One splitter (cdpu_lz77::block), each streaming constant defined once, the
# push-past-total check only in cdpu_lz77::stream::StreamDriver and the
# parserless gipfeli adapter, and no zstd/flate encode path writing the
# frame magic beside cdpu_lz77::block::BlockFrameWriter.
past_total="$(grep -rnF '"pushed past the declared total"' crates --include='*.rs' | cut -d: -f1 | sort | tr '\n' ' ')"
if [ "$(grep -rnE 'struct Splitter\b' crates --include='*.rs' | wc -l)" -ne 1 ] ||
    [ "$(grep -rnE 'const FEED_PIECE\b' crates --include='*.rs' | wc -l)" -ne 1 ] ||
    [ "$(grep -rnE 'const HIGH_WATER\b' crates --include='*.rs' | wc -l)" -ne 1 ] ||
    [ "$past_total" != "crates/lite/src/stream.rs crates/lz77/src/stream.rs " ] ||
    grep -rnE 'extend_from_slice\(&MAGIC\)|MAGIC\.to_vec\(\)' crates/zstd/src crates/flate/src; then
    echo "FAIL: a second splitter, streaming constant, push/finish driver or block-frame header writer is back" >&2
    exit 1
fi

echo "==> one serving event loop: the simulator and the engine are tiers over crates/serve/src/event.rs"
# No loop state or idle dispatcher of a tier's own, and the one match on
# a departure event is the loop's (test modules excluded).
departure_matches=""
for f in crates/serve/src/*.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'struct (RunState|EngState)\b|fn dispatch_idle\b'; then
        echo "FAIL: $f grew a serving loop's own state or idle dispatcher beside the one loop" >&2
        exit 1
    fi
    n="$(sed '/^#\[cfg(test)\]/,$d' "$f" | grep 'EventKind::Departure' | grep -vc 'push(' || true)"
    if [ "$n" -gt 0 ]; then
        departure_matches="$departure_matches $f:$n"
    fi
done
if [ "$departure_matches" != " crates/serve/src/event.rs:1" ]; then
    echo "FAIL: departures are matched outside the one loop:$departure_matches" >&2
    exit 1
fi

echo "==> one pipeline model: every cdpu_hwsim price goes through cdpu_hwsim::{stages, simulate}"
# No per-pipeline stage, profiled, area or service function in cdpu_hwsim,
# and no per-algorithm model call in cdpu_core (test modules excluded).
for f in crates/hwsim/src/*.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'fn (snappy|zstd|flate)_(comp|decomp)_stages|_compress_profiled|fn flate_(compress|decompress)\b|_compressor_mm2|_decompressor_mm2|PipeClass|fn service_sim\b'; then
        echo "FAIL: $f grew a per-pipeline model function beside the one stages/simulate dispatch" >&2
        exit 1
    fi
done
for f in crates/core/src/*.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'comp::(snappy|zstd)_compress|decomp::(snappy|zstd)_decompress|area::[a-z_]+_mm2'; then
        echo "FAIL: $f dispatches per algorithm into the model beside cdpu_hwsim::{stages, simulate}" >&2
        exit 1
    fi
done

echo "==> measure once, price per placement: the compression sweep parses once per history SRAM"
# compression_sweep takes cdpu_hwsim::comp::hw_profile per (history, file)
# and prices it per placement; comp::compress would parse once per point.
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/dse.rs | grep -n 'comp::compress('; then
    echo "FAIL: crates/core/src/dse.rs runs the hardware parse per design point again" >&2
    exit 1
fi

echo "==> one benchmark harness: no bench timing binary, regress gate or stage-pipelined codec paths"
for f in crates/bench/src/bin/bench.rs crates/bench/src/regress.rs crates/par/src/pipeline.rs; do
    if [ -e "$f" ]; then
        echo "FAIL: $f is back; benchmark/ is the one timing harness" >&2
        exit 1
    fi
done
if grep -rnE '_pipelined|cdpu_par::pipeline' crates; then
    echo "FAIL: a stage-pipelined codec path is back under crates/" >&2
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> repo benchmark smoke (benchmark/smoke.sh: every public entry it links still builds and runs)"
# The benchmark is a package of its own, which the workspace build never
# sees: a renamed entry point would otherwise fail the driver first.
# Building it after a workspace crate drops a dependency rewrites its
# Cargo.lock in place; benchmark/ is frozen, so the lock goes back after.
restore_bench_lock() {
    if git rev-parse --git-dir > /dev/null 2>&1; then
        git checkout -- benchmark/Cargo.lock
    fi
}
benchmark/smoke.sh > /tmp/cdpu_benchmark_smoke.txt 2>&1 || {
    restore_bench_lock
    tail -n 40 /tmp/cdpu_benchmark_smoke.txt >&2
    echo "FAIL: benchmark/smoke.sh" >&2
    exit 1
}
restore_bench_lock

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

echo "==> entropy figure smoke (tiny)"
./target/release/figures entropy --tiny > /tmp/cdpu_entropy_fig.txt
if ! grep -q 'rans x4' /tmp/cdpu_entropy_fig.txt; then
    echo "FAIL: entropy figure missing the rANS rows" >&2
    exit 1
fi

echo "CI OK"

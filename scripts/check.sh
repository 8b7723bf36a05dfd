#!/usr/bin/env bash
# Repository gate: formatting, lints, release build, and the full test
# suite. Everything runs offline — the workspace has no external
# dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy -D warnings =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release --offline --workspace

echo "== cargo test -q =="
cargo test -q --offline --workspace

echo "== failure injection / chaos suite =="
cargo test -q --offline --test failure_injection
cargo test -q --offline -p msite-net --test resilience_prop
cargo test -q --offline -p msite --test cache_stale_prop

echo "== durability: restart-under-load + disk-fault chaos =="
cargo test -q --offline -p msite --test persistence_e2e

echo "== subtree cache eviction accounting =="
cargo test -q --offline -p msite --test subtree_prop

echo "== cookie jar RFC 6265 property suite =="
cargo test -q --offline -p msite-net --test cookie_prop

echo "== session store eviction accounting + tenant isolation =="
cargo test -q --offline -p msite --test session_prop

echo "== stampede / single-flight suite =="
cargo test -q --offline -p msite --test cache_stampede
cargo test -q --offline -p msite --test cache_shard_prop
cargo test -q --offline --test multi_user cold_stampede_collapses_to_one_render
cargo test -q --offline --test multi_user streamed_cold_stampede_collapses_to_one_render
cargo test -q --offline --test multi_user mixed_streamed_and_batch_stampede_still_renders_once
cargo test -q --offline --test multi_user streamed_outage_stampede_fails_like_batch
cargo test -q --offline --test content_scenarios tiered_image_requested_mid_rebuild_waits_for_the_rebuild
cargo run --release --offline -p msite-bench --bin experiments -- burst

echo "== seeded schedule-exploration smoke =="
cargo test -q --offline -p msite --test cache_stampede schedule_exploration_smoke

echo "== parallel pipeline determinism suite =="
cargo test -q --release --offline -p msite --test pipeline_determinism
cargo test -q --offline -p msite-support --test worker_pool_prop

echo "== telemetry suite (registry, tracing, exposition) =="
cargo test -q --offline -p msite-support --test telemetry_prop
cargo test -q --offline -p msite-support --test metrics_golden
cargo test -q --offline --test proxy_e2e shared_registry_sums_both_proxies_cache_counters
cargo test -q --offline --test proxy_e2e idle_proxy_scrapes_zero_parser_and_png_work
cargo test -q --offline -p msite --test session_prop live_gauges_track_evictions_without_a_scrape

echo "== end-to-end proxy conformance (metrics, traces, headers) =="
cargo test -q --offline --test proxy_e2e

echo "== content adaptation scenarios (extraction, strip, tiers) =="
cargo test -q --offline --test content_scenarios
cargo test -q --offline -p msite --test content_prop
cargo test -q --offline -p msite --test attr_codec
cargo test -q --offline -p msite-sites --test determinism

echo "== SWAR byte-identity gates (fast vs scalar twins) =="
cargo test -q --offline -p msite-support --test swar_prop
cargo test -q --offline -p msite-html --test swar_identity
cargo test -q --offline -p msite-selectors --test bloom_identity
cargo test -q --offline -p msite --test strip_tag_prop
cargo test -q --offline --test swar_fixture_identity

echo "== throughput shape assertions (serial vs parallel, overload) =="
cargo run --release --offline -p msite-bench --bin experiments -- throughput

echo "== telemetry overhead gate =="
cargo run --release --offline -p msite-bench --bin experiments -- telemetry

echo "== streaming TTFB + incremental re-adaptation gate =="
cargo run --release --offline -p msite-bench --bin experiments -- streaming

echo "== durability + adaptive-capacity gate (warm restart, surge) =="
cargo run --release --offline -p msite-bench --bin experiments -- durability

echo "== million-user session capacity gate (bounded store, quotas) =="
cargo run --release --offline -p msite-bench --bin experiments -- capacity

echo "== SWAR hot-path speedup gate (tokenizer+entity, crc32) =="
cargo run --release --offline -p msite-bench --bin experiments -- hotpath

echo "== content extraction precision/recall + fidelity tier gate =="
cargo run --release --offline -p msite-bench --bin experiments -- content

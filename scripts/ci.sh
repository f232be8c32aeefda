#!/usr/bin/env bash
# Local CI gate: formatting, lints (warnings are errors), the full test
# suite, the paper bins, the end-to-end benchmark in --quick mode, and
# the grep gates. Everything runs offline — the workspace routes rand
# and proptest to the vendored shims under shims/.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, no deps, -D warnings)"
# Every intra-doc link must resolve, and public docs may not link to
# private items.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --keep-going -q

echo "==> cargo test (workspace)"
cargo test -q --no-fail-fast --workspace

echo "==> cargo test (benchmark crate)"
cargo test -q --no-fail-fast --offline --manifest-path benchmark/Cargo.toml

echo "==> paper-reproduction binaries (smoke mode)"
# Every figure/table/ablation bin must *run*, not just compile, so bench
# code can't bit-rot outside the test suite. They are already tiny and
# take no size knobs; --smoke is passed for uniformity.
cargo build --release -q -p sj-bench
for bin in crates/bench/src/bin/*.rs; do
    name="$(basename "$bin" .rs)"
    echo "    -> $name --smoke"
    "./target/release/$name" --smoke >/dev/null
done

echo "==> end-to-end benchmark (benchmark/run.sh --quick)"
# The one harness that drives requests through ShardRouter: its check
# pass asserts every reply against the single-node reference, and it
# validates its own result JSON and trace schema — any failure exits
# non-zero. Numbers from a --quick run are smoke, not measurements.
bash benchmark/run.sh --quick >/dev/null

echo "==> no-alloc grep gate (soa.rs mask kernels)"
# The mask kernels promise straight-line, allocation-free lane
# arithmetic. Nothing between the mask-kernel-begin/end markers may
# allocate — any Vec/Box/String construction or collection growth there
# is a regression the optimizer cannot be trusted to hoist.
alloc_hits=$(
    awk '/mask-kernel-begin/ { scan = 1 }
         /mask-kernel-end/ { scan = 0 }
         scan && /vec!|Vec::|\.push\(|\.collect\(|Box::new|String::|format!|to_vec\(|with_capacity/ {
             print FILENAME ":" FNR ": " $0
         }' crates/geom/src/soa.rs
)
if [ -n "$alloc_hits" ]; then
    echo "    allocation inside the mask-kernel region:"
    echo "$alloc_hits"
    exit 1
fi
markers=$(grep -c "mask-kernel-begin\|mask-kernel-end" crates/geom/src/soa.rs)
if [ "$markers" -ne 2 ]; then
    echo "    expected exactly one mask-kernel-begin/end pair, found $markers markers"
    exit 1
fi
echo "    -> mask-kernel region is allocation-free"

echo "==> unsafe gate (SSE2 lanes only, each unsafe justified)"
# The mask kernels call their one SSE2 boundary (a #[target_feature]
# function) from an unsafe block. Non-test code under crates/*/src and
# src may use `unsafe` nowhere else: only inside soa.rs's mask-kernel
# region, and only directly below a comment block holding a
# `// SAFETY:` line. Comments are stripped before matching.
unsafe_report=$(
    find crates/*/src src -name '*.rs' | sort | while read -r f; do
        awk -v soa="crates/geom/src/soa.rs" '
            /^#\[cfg\(test\)\]/ { exit }
            /mask-kernel-begin/ { region = 1 }
            /mask-kernel-end/ { region = 0 }
            {
                code = $0
                sub(/\/\/.*/, "", code)
                if (code ~ /(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/) {
                    if (FILENAME == soa && region && safety) print "ok"
                    else print "bad " FILENAME ":" FNR ": " $0
                }
                if ($0 ~ /^[ \t]*\/\/ SAFETY:/) safety = 1
                else if ($0 !~ /^[ \t]*\/\//) safety = 0
            }' "$f"
    done
)
unsafe_bad=$(grep '^bad ' <<<"$unsafe_report" || true)
if [ -n "$unsafe_bad" ]; then
    echo "    unsafe outside the mask-kernel region or without a SAFETY comment:"
    echo "${unsafe_bad//bad /}"
    exit 1
fi
echo "    -> $(grep -c '^ok' <<<"$unsafe_report" || true) unsafe use(s), all justified in the mask-kernel region"

echo "==> one edge-pair kernel gate (sj-geom walks two boundaries in one place)"
# Ring validation and every polygon/polyline θ test their edge pairs
# through `Chain` in segment.rs, which walks only the edges whose box meets
# the window where both chains' MBRs overlap, and computes orientations
# only for pairs whose edge boxes meet. A nested `.any(` over
# `.edges()`/`.segments()` would test every pair. qgeom.rs and the
# distance loops (plain `for` loops) are outside this gate.
nested=$(
    for f in crates/geom/src/*.rs; do
        case "$f" in */qgeom.rs) continue ;; esac
        awk '/^#\[cfg\(test\)\]/ { exit }
             /\.any\(\|[^|]*\|.*\.(edges|segments)\(\)/ { print FILENAME ":" FNR ": " $0 }' "$f"
    done
)
if [ -n "$nested" ]; then
    echo "    a nested edge-pair loop is back beside the kernel:"
    echo "$nested"
    exit 1
fi
echo "    -> no nested edge-pair .any( outside the kernel"

echo "==> exact orientation gate (segment.rs and polygon.rs decide signs without a tolerance)"
# `orientation` returns the exact sign of the cross product (a float
# filter, then an exact expansion), so the intersection tests in
# segment.rs need no tolerance; the ±EPSILON codes and the `straddles`
# patch that compensated for them must not come back. `Polygon::new`
# calls a ring zero-area by the same exact sign, never by an absolute
# area threshold.
tolerant=$(
    for f in crates/geom/src/segment.rs crates/geom/src/polygon.rs; do
        awk '/^#\[cfg\(test\)\]/ { exit }
             /EPSILON|straddles/ { print FILENAME ":" FNR ": " $0 }' "$f"
    done
)
if [ -n "$tolerant" ]; then
    echo "    a tolerance is back in segment.rs or polygon.rs:"
    echo "$tolerant"
    exit 1
fi
echo "    -> segment.rs and polygon.rs name neither EPSILON nor straddles"

echo "==> fail-stop grep gate (no unchecked panics in storage/service/shard/joins/rel)"
# These crates promise typed errors: StorageError below the relational
# layer, DbError in sj-rel. Non-test code there may not grow new
# unwrap()/expect(/panic! calls (doc comments included); deliberate
# survivors (JoinExecutor::execute, internal invariants, unsupported-
# operator panics) carry a same-line "PANIC-OK" marker, and everything
# from the top-level #[cfg(test)] (the tests module) to EOF is test
# code. Indented cfg(test) attributes (test-only fields and hooks) do
# not end the scan. sj-storage keeps exactly one marker (page.rs, the
# u16 slot bound): every paged operation there is fallible.
violations=$(
    for f in crates/storage/src/*.rs crates/service/src/*.rs \
             crates/shard/src/*.rs crates/joins/src/*.rs crates/rel/src/*.rs; do
        awk '/^#\[cfg\(test\)\]/ { exit }
             /PANIC-OK/ { next }
             /\.unwrap\(\)|\.expect\(|panic!/ { print FILENAME ":" FNR ": " $0 }' "$f"
    done
)
storage_ok=$(cat crates/storage/src/*.rs | grep -c 'PANIC-OK')
if [ -n "$violations" ] || [ "$storage_ok" -ne 1 ]; then
    echo "    unchecked panic paths in fail-stop crates ($storage_ok PANIC-OK in sj-storage, want 1):"
    echo "$violations"
    exit 1
fi
echo "    -> storage + service + shard + joins + rel non-test code is panic-clean"

echo "==> entry-point gate (one public path per join strategy, one per paged operation)"
# Each join/select algorithm in sj-joins and sj-gentree is one public
# function: fallible, traced, under the short name. The count may not
# creep back up, and no forwarding-twin suffix may reappear (the
# optimizer, advisor.rs, chooses among strategies and is not one: its
# `try_estimate_selectivity` is not counted).
# Below the strategies, no `pub fn try_<x>` in storage/joins/core/geom
# may have a panicking `pub fn <x>` sibling in the same file.
entry_points=$(grep -rhE --exclude=advisor.rs '^\s*pub fn [a-z_]*(join|select)[a-z_]*' \
    crates/joins/src crates/gentree/src)
count=$(printf '%s\n' "$entry_points" | wc -l)
if [ "$count" -gt 17 ]; then
    echo "    $count public join/select entry points (limit 17):"
    echo "$entry_points"
    exit 1
fi
twins=$(
    printf '%s\n' "$entry_points" | grep -E '_traced|_with|_counted' || true
    for f in crates/{storage,joins,core,geom}/src/*.rs; do
        grep -ohE 'pub fn try_[a-z_]+' "$f" | sed 's/try_\(.*\)/\1\\b/' | grep -HnEf - "$f" || true
    done
)
if [ -n "$twins" ]; then
    echo "    forwarding twins are back:"
    echo "$twins"
    exit 1
fi
echo "    -> $count public join/select entry points, no twins"

echo "==> one-optimizer gate (one chooser, one sampler, off the service's build graph)"
# The §4 scoreboard is priced at one call site and selectivity is
# sampled by one function, both in sj-joins' advisor.rs; sj-rel's
# planner and the service's chooser reach them only through
# `advisor::try_pick`, so non-test sj-rel code calls neither directly.
# The router forwards `Auto` to each shard's service: no second chooser
# (`AdaptiveAdvisor`, `choose_join_strategy`) may come back anywhere, and
# non-test sj-shard code names no `advisor::`.
# Nothing a request crosses compiles sj-core, sj-rel or sj-zorder.
nontest_src=$(
    for f in crates/*/src/*.rs; do
        case "$f" in crates/costmodel/*) continue ;; esac
        awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
    done
)
scoreboards=$(grep -c 'join::d_i(' <<<"$nontest_src" || true)
samplers=$(grep -cE 'fn [a-z_]*estimate[a-z_]*' <<<"$nontest_src" || true)
shims=$(grep -rn 'sj_core_model' crates src tests examples || true)
planner_copies=$(grep -E '^crates/rel/src/[^:]*:[0-9]+: .*(recommend|try_estimate_selectivity)\(' \
    <<<"$nontest_src" || true)
second_chooser=$(
    grep -rnE 'AdaptiveAdvisor|choose_join_strategy' crates src tests examples || true
    grep -E '^crates/shard/src/[^:]*:[0-9]+: .*advisor::' <<<"$nontest_src" || true
)
if [ "$scoreboards" -ne 1 ] || [ "$samplers" -ne 1 ] || [ -n "$shims" ] || [ -n "$planner_copies" ] ||
    [ -n "$second_chooser" ]; then
    echo "    $scoreboards join::d_i( call sites (want 1), $samplers estimate fns (want 1)"
    grep -E 'join::d_i\(|fn [a-z_]*estimate[a-z_]*' <<<"$nontest_src" || true
    echo "$shims"
    echo "$planner_copies"
    echo "$second_chooser"
    exit 1
fi
for pkg in sj-service sj-shard; do
    upward=$(cargo tree --offline -p "$pkg" -e normal | grep -E 'sj-(core|rel|zorder) ' || true)
    if [ -n "$upward" ]; then
        echo "    $pkg builds a crate no request reaches:"
        echo "$upward"
        exit 1
    fi
done
echo "    -> one scoreboard, one sampler, no second chooser; sj-service and sj-shard build no sj-core, sj-rel or sj-zorder"

echo "==> one-dispatch gate (Database joins on sj_joins::Strategy, selects on TraversalOrder)"
# sj-rel has no strategy enum of its own and no named join indices: a
# join index is the one slot per (sides, θ) behind Strategy::JoinIndex,
# and local join indices are sj-joins library calls only.
second_dispatch=$(grep -rnE 'JoinStrategy|SelectStrategy|create_local_join_index|__auto:' \
    crates src tests examples || true)
if [ -n "$second_dispatch" ]; then
    echo "    a second strategy dispatch or a named join index is back:"
    echo "$second_dispatch"
    exit 1
fi
echo "    -> no JoinStrategy, SelectStrategy, create_local_join_index or __auto: names"

echo "==> five-strategies gate (a request names only what the optimizer can price)"
# sj_joins::Strategy is the five strategies that run all eight θ plus
# Auto. The grid-file join, local join indices and the z-order joins are
# library functions: no variant, no applicability matrix, no rejection.
unpriced=$(grep -rnE 'Strategy::(Grid|ZOrderMerge|ZIndex|LocalIndex)\b|fn supports|\.supports\(|partitions_space|UnsupportedTheta' \
    crates src tests examples || true)
if [ -n "$unpriced" ]; then
    echo "    an unpriced strategy or the applicability matrix is back:"
    echo "$unpriced"
    exit 1
fi
echo "    -> five strategies + Auto, no supports(), no UnsupportedTheta"

echo "==> one-refine-path gate (every join refines exact geometries)"
# Sweep and partition refine a candidate by evaluating θ on both exact
# geometries: a box from its scan entry, a polygon or polyline fetched
# once. Non-test sj-joins code may not consult quantized records or the
# margin predicate. The paged tree still writes v2 node frames
# (`encode_qrecord`), which this gate allows.
quantized=$(
    for f in crates/joins/src/*.rs; do
        awk '/^#\[cfg\(test\)\]/ { exit }
             /QGeometry|margin_eval|MarginVerdict|try_decode_qrecord|quant_at/ {
                 print FILENAME ":" FNR ": " $0 }' "$f"
    done
)
if [ -n "$quantized" ]; then
    echo "    a second refine path is back:"
    echo "$quantized"
    exit 1
fi
echo "    -> one refine path: no quantized record or margin verdict in sj-joins"

echo "==> one-filter-and-refine-loop gate (the sweep is the partition join over one tile)"
# `partition.rs` holds the one loop that sweeps a tile's MBRs and refines
# its candidates; `sweep_join` and `partition_join` each call it with a
# tile count. Non-test sj-joins code may therefore call the sweep filter
# and build a refiner exactly once each.
for call in 'sweep_candidates(' 'Refiner::new('; do
    sites=$(
        for f in crates/joins/src/*.rs; do
            awk -v call="$call" '/^#\[cfg\(test\)\]/ { exit }
                 index($0, call) { print FILENAME ":" FNR ": " $0 }' "$f"
        done
    )
    if [ "$(printf '%s' "$sites" | grep -c .)" -ne 1 ]; then
        echo "    expected exactly one non-test \`$call\` call in crates/joins/src, found:"
        echo "${sites:-    (none)}"
        exit 1
    fi
done
# Strategy III's build is that loop too: non-test `join_index.rs` calls
# `partition_join(` once and scans a whole relation (`try_scan(`) only in
# `maintain_insert_r`, U_III's θ-check of a new tuple against all of S.
ji=crates/joins/src/join_index.rs
ji_builds=$(awk '/^#\[cfg\(test\)\]/ { exit } /partition_join\(/' "$ji" | grep -c . || true)
ji_scans=$(
    awk '/^#\[cfg\(test\)\]/ { exit }
         /fn [a-z_]+[(<]/ { fn = $0; sub(/.*fn /, "", fn); sub(/[(<].*/, "", fn) }
         /try_scan\(/ && fn != "maintain_insert_r" { print FILENAME ":" FNR ": " $0 }' "$ji"
)
if [ "$ji_builds" -ne 1 ] || [ -n "$ji_scans" ]; then
    echo "    join_index.rs must build through one partition_join( call (found $ji_builds)"
    echo "    and call try_scan( only in maintain_insert_r${ji_scans:+, found:}"
    echo "${ji_scans}"
    exit 1
fi
echo "    -> one filter-and-refine loop: one sweep_candidates( and one Refiner::new( in sj-joins,"
echo "       and the join index is built by one partition_join( call"

echo "==> one-executor gate (Strategy dispatches in one match)"
# `Strategy::executor` builds one private executor type: its
# `try_execute` resolves `Auto` through the chooser, then matches the
# concrete strategy onto that strategy's one function. Non-test sj-joins
# code may hold exactly one `impl JoinExecutor for`, and non-test
# executor.rs builds no second executor (no `.executor(` call).
impls=$(
    for f in crates/joins/src/*.rs; do
        awk '/^#\[cfg\(test\)\]/ { exit }
             /impl JoinExecutor for/ { print FILENAME ":" FNR ": " $0 }' "$f"
    done
)
rebuilds=$(awk '/^#\[cfg\(test\)\]/ { exit }
                /\.executor\(/ { print FILENAME ":" FNR ": " $0 }' crates/joins/src/executor.rs)
n_impls=$(printf '%s' "$impls" | grep -c . || true)
n_rebuilds=$(printf '%s' "$rebuilds" | grep -c . || true)
if [ "$n_impls" -ne 1 ] || [ "$n_rebuilds" -ne 0 ]; then
    echo "    $n_impls \`impl JoinExecutor for\` (want 1), $n_rebuilds \`.executor(\` calls in executor.rs (want 0):"
    echo "$impls"
    echo "$rebuilds"
    exit 1
fi
echo "    -> one JoinExecutor implementation; executor.rs builds no second executor"

echo "==> sequential-executor gate (one I/O stream per join strategy)"
# A join runs on the calling thread against the caller's pool; a second
# core is spent one layer up, by the router's tile shards. Non-test
# sj-joins/sj-gentree code may not name std::thread, and the deleted
# knob and its depth-first pair join may not come back anywhere.
threaded=$(
    for f in crates/joins/src/*.rs crates/gentree/src/*.rs; do
        awk '/^#\[cfg\(test\)\]/ { exit } /thread::/ { print FILENAME ":" FNR ": " $0 }' "$f"
    done
    grep -rnE 'Parallelism|_pair_flat|depth_first_flat' crates src examples tests || true
)
if [ -n "$threaded" ]; then
    echo "    in-executor threading is back:"
    echo "$threaded"
    exit 1
fi
echo "    -> no thread:: in sj-joins/sj-gentree, no Parallelism knob"

echo "==> batch-bounded commit gate (commit work follows the batch)"
# A commit's CPU follows what its batch touches: the paged-tree evolve
# visits the R-tree's dirty slots, never a whole tree (the constructors'
# bfs_order stays), and a relation delete rewrites no directory. Its
# copies follow the batch too: the arena and the page table are chunked
# copy-on-write (no whole-`Vec` form, no hand-written arena `Clone`), and
# the evolve patches the flat view instead of rebuilding it.
walks=$(
    awk '/^#\[cfg\(test\)\]/ { exit } /iter_live/ { print FILENAME ":" FNR ": " $0 }' \
        crates/joins/src/paged_tree.rs
    awk '/^#\[cfg\(test\)\]/ { exit } /\.skip\(pos\)/ { print FILENAME ":" FNR ": " $0 }' \
        crates/joins/src/relation.rs
    awk '/^#\[cfg\(test\)\]/ { exit }
         /impl Clone for GenTree|Vec<Node>/ { print FILENAME ":" FNR ": " $0 }' \
        crates/gentree/src/tree.rs
    awk '/^    pub fn try_evolve/ { scan = 1 }
         scan && /FlatChildren::build|iter_live/ { print FILENAME ":" FNR ": " $0 }
         scan && /^    }$/ { exit }' crates/joins/src/paged_tree.rs
    awk '/^#\[cfg\(test\)\]/ { exit } /Vec<Arc<Page>>/ { print FILENAME ":" FNR ": " $0 }' \
        crates/storage/src/disk.rs
)
if [ -n "$walks" ]; then
    echo "    O(n) work is back on the commit path:"
    echo "$walks"
    exit 1
fi
echo "    -> try_evolve walks no tree and rebuilds no view, try_delete rewrites no"
echo "       directory, arena and page table are chunked copy-on-write"

echo "==> read-path gate (a read copies nothing)"
# A read pays for what it reads: forking a view clones no page table,
# a record read lends the frame's bytes, the refiner never hashes or
# fetches a point or rectangle (its MBR scan entry is the record) and
# hashes a polygon or polyline once per candidate, and the router merges the shards' sorted replies
# instead of re-sorting them. A buffer frame holds a page id, not a page
# image, and a tree-node visit charges its I/O without reading the page.
copies=$(
    for f in crates/storage/src/buffer.rs crates/joins/src/paged_tree.rs \
             crates/joins/src/relation.rs; do
        awk '/^#\[cfg\(test\)\]/ { exit } /to_vec/ { print FILENAME ":" FNR ": " $0 }' "$f"
    done
    awk '/^#\[cfg\(test\)\]/ { exit } /pages\.clone\(\)/ { print FILENAME ":" FNR ": " $0 }' \
        crates/storage/src/disk.rs
    awk '/^#\[cfg\(test\)\]/ { exit } /contains_key/ { print FILENAME ":" FNR ": " $0 }' \
        crates/joins/src/refine.rs
    awk '/^    fn merge\(/ { scan = 1 } scan && /sort_unstable/ { print FILENAME ":" FNR ": " $0 }
         scan && /^    }$/ { exit }' crates/shard/src/router.rs
    awk '/^#\[cfg\(test\)\]/ { exit } /^(pub(\(crate\))? )?struct Frame/ { scan = 1 }
         scan && /Arc<Page>/ { print FILENAME ":" FNR ": " $0 } scan && /^}$/ { scan = 0 }' \
        crates/storage/src/buffer.rs
    awk '/pub fn try_touch_io\(/ { scan = 1 }
         scan && /try_read_record|try_fetch/ { print FILENAME ":" FNR ": " $0 }
         scan && /^    }$/ { exit }' crates/joins/src/paged_tree.rs
)
if [ -n "$copies" ]; then
    echo "    a copy, a second hash, a re-sort, a frame image or a node read is back on the read path:"
    echo "$copies"
    exit 1
fi
echo "    -> O(1) fork, lent record bytes, id-only frames, charged node visits, one hash per candidate, merged replies"

echo "==> hit-path gate (a hit is answered where it arrives)"
# The serving path probes the result cache at one site: in `call`, on
# the caller's thread, above the in-flight slot and with no snapshot pin
# (`snapshot.load()`) ahead of it. `version` takes no publisher lock
# either. The router keeps no advisors, and `ShardRouter::call` takes no
# lock outside `join_at_router`, so a routed hit locks nothing but its
# cache.
detours=$(
    awk '/^#\[cfg\(test\)\]/ { exit }
         /^    pub fn (call|version)\(/ { fn = $3 }
         /^    }$/ { fn = "" }
         /cache\.get\(/ { probes++; if (fn !~ /^call/ || slotted || pinned) print FILENAME ":" FNR ": " $0 }
         fn ~ /^call/ && /in_flight/ { slotted = 1 }
         fn ~ /^call/ && /snapshot\.load\(\)/ { pinned = 1 }
         fn ~ /^version/ && /snapshot\.load\(\)/ { print FILENAME ":" FNR ": " $0 }
         END {
             if (probes != 1) print FILENAME ": " probes + 0 " cache.get( sites, want 1"
             if (!slotted) print FILENAME ": no in-flight slot in call"
         }' crates/service/src/service.rs
    awk '/^#\[cfg\(test\)\]/ { exit }
         /^    pub fn call\(/ { in_call = 1 }
         /^    }$/ { in_call = 0 }
         /advisors/ || (in_call && /lock\(/) { print FILENAME ":" FNR ": " $0 }' \
        crates/shard/src/router.rs
)
if [ -n "$detours" ]; then
    echo "    a second probe site or a lock is back on the hit path:"
    echo "$detours"
    exit 1
fi
echo "    -> one probe site, in call above the slot; no publisher or router lock on a hit"

echo "==> no-pool gate (a request runs on the thread that asked for it)"
# sj-service owns no thread: `call` runs a request on its caller's
# thread, and the router fans out to several shards with scoped threads.
# No admission queue, reply channel, batching, deadline, per-worker
# snapshot reader or sharded cache may come back.
pooled=$(
    if [ -e crates/service/src/admission.rs ]; then
        echo "crates/service/src/admission.rs exists"
    fi
    for f in crates/service/src/*.rs; do
        awk '/^#\[cfg\(test\)\]/ { exit }
             /thread::|mpsc|JoinHandle|Condvar/ { print FILENAME ":" FNR ": " $0 }' "$f"
    done
    grep -rnE 'ShardedQueue|AdmissionQueue|Pending|worker_loop|batch_size|deadline_us|DeadlineExceeded|SnapshotReader|CacheShards' \
        crates src tests examples || true
)
if [ -n "$pooled" ]; then
    echo "    the worker pool is back:"
    echo "$pooled"
    exit 1
fi
echo "    -> no thread, queue, channel or deadline in sj-service"

echo "==> residency gate (one service per plan leaf, one authority copy at the router)"
# Non-test sj-shard code starts services at exactly one call site (the
# per-leaf loop) and names no fallback: the only whole-data structure at
# the router is the authority maps. The trace key "fallback_queries" is
# pinned by the benchmark and is the one allowed mention.
shard_src=$(for f in crates/shard/src/*.rs; do awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$f"; done)
starts=$(grep -c 'SpatialService::start' <<<"$shard_src" || true)
stray=$(grep -v '"fallback_queries"' <<<"$shard_src" | grep -c 'fallback' || true)
if [ "$starts" -ne 1 ] || [ "$stray" -ne 0 ]; then
    echo "    $starts SpatialService::start call sites (want 1), $stray stray 'fallback' lines (want 0)"
    exit 1
fi
echo "    -> one SpatialService::start call site, no fallback"

echo "==> one-durable-format gate (every image is a checksummed log)"
# The write-ahead log's frames are the one durable format: a service
# checkpoint image and a saved database are each a synced log of
# records, framed and checksummed by wal.rs. Non-test code under
# crates/*/src and src may hold the FNV-1a offset basis (the frame
# checksum) only there, name no page-image or page-catalog magic
# (SJDISK*/SJCAT*), and `Disk` may not learn to save or load itself.
# There are exactly two checksum sites: the WAL frame's FNV-1a in
# wal.rs and the v1 record checksum in codec.rs. A third (a function or
# type named for a checksum or a well-known hash, or the FNV constants)
# fails the gate.
formats=$(
    for f in $(find crates/*/src src -name '*.rs' | sort); do
        awk '/^#\[cfg\(test\)\]/ { exit }
             /0xcbf29ce484222325/ { print "basis " FILENAME ":" FNR }
             tolower($0) ~ /(fn|struct|enum) [a-z0-9_]*(checksum|crc|fnv|adler|xxh|murmur)/ ||
             /0xcbf29ce484222325|0x100000001b3/ { print "checksum " FILENAME }
             /SJDISK|SJCAT/ { print "magic " FILENAME ":" FNR ": " $0 }
             /^impl Disk \{/ { disk = 1 }
             disk && /^}/ { disk = 0 }
             disk && /fn (save|load)\(/ { print "disk " FILENAME ":" FNR ": " $0 }' "$f"
    done
)
basis="basis crates/storage/src/wal.rs:$(grep -n 0xcbf29ce484222325 crates/storage/src/wal.rs | cut -d: -f1)"
sites="checksum crates/geom/src/codec.rs
checksum crates/storage/src/wal.rs"
if [ "$(echo "$formats" | grep -v '^checksum ')" != "$basis" ] ||
    [ "$(echo "$formats" | grep '^checksum ' | sort -u)" != "$sites" ]; then
    echo "    a third checksum, an old image format or a disk image writer is back:"
    echo "$formats"
    exit 1
fi
echo "    -> two checksums (wal.rs frames, codec.rs records), no page image or page catalog"

echo "==> frame-length gate (records at their frame length, one buffer per page)"
# The v1/v2 and row encoders write a record at its encoded length: the
# record size they take is the slot width it must fit, never a length to
# pad to. A page keeps its live records in one byte buffer with an
# (offset, len) entry per slot, not one allocation per record.
padded=$(
    for f in crates/geom/src/codec.rs crates/rel/src/tuple.rs; do
        awk '/^#\[cfg\(test\)\]/ { exit } /resize\(/ { print FILENAME ":" FNR ": " $0 }' "$f"
    done
    awk '/^#\[cfg\(test\)\]/ { exit } /Vec<Vec<u8>>/ { print FILENAME ":" FNR ": " $0 }' \
        crates/storage/src/page.rs
)
if [ -n "$padded" ]; then
    echo "    padding or a per-record allocation is back:"
    echo "$padded"
    exit 1
fi
echo "    -> encoders write frames at their length, a page is one byte buffer"

echo "==> MBR-scan gate (the filter's scan decodes no geometry)"
# `StoredRelation::try_scan_mbrs` reads each record's MBR from its raw
# coordinates (codec::try_decode_mbr). A full decoder in its body would
# bring back a vertex list and a Polygon per record.
decoders=$(
    awk '/^    pub fn try_scan_mbrs/ { scan = 1 }
         scan && /try_read_at\(|try_decode_record\(|try_decode_untrusted\(|try_scan\(/ {
             print FILENAME ":" FNR ": " $0 }
         scan && /^    }$/ { exit }' crates/joins/src/relation.rs
)
if ! grep -q '^    pub fn try_scan_mbrs' crates/joins/src/relation.rs || [ -n "$decoders" ]; then
    echo "    try_scan_mbrs is gone or calls a full decoder:"
    echo "$decoders"
    exit 1
fi
echo "    -> try_scan_mbrs decodes MBRs only"

echo "CI OK"

#!/usr/bin/env bash
# Non-test line count of the stream crate: per file and in total, the lines of
# crates/stream/src/*.rs that precede the first `#[cfg(test)]`; then the same
# total for crates/core/src, which the stream crate's plans are compiled in.
# Exits non-zero above either CEILING, so "net-negative line count" (ROADMAP
# aim 2) is a checked number for stream and core together: code moved from
# one crate into the other must not grow. Lower a ceiling whenever a change lands
# below it; raise it only with a reason in CHANGES.md.
set -euo pipefail

CEILING=11449
CORE_CEILING=4656

cd "$(dirname "$0")/.."
nontest() { awk '/^#\[cfg\(test\)\]/{exit} {c++} END{print c+0}' "$1"; }
total=0
for f in crates/stream/src/*.rs; do
    n=$(nontest "$f")
    printf '%6d  %s\n' "$n" "$f"
    total=$((total + n))
done
printf '%6d  total (ceiling %d)\n' "$total" "$CEILING"
if [ "$total" -gt "$CEILING" ]; then
    echo "crates/stream/src grew past its non-test line ceiling" >&2
    exit 1
fi
core=0
for f in crates/core/src/*.rs; do
    core=$((core + $(nontest "$f")))
done
printf '%6d  crates/core/src total (ceiling %d); %d with stream\n' \
    "$core" "$CORE_CEILING" "$((core + total))"
if [ "$core" -gt "$CORE_CEILING" ]; then
    echo "crates/core/src grew past its non-test line ceiling" >&2
    exit 1
fi

status=0

# One step classification: how each purge-recipe step is paid for (its own
# key, a chain-bound probe, a full scan) is decided once, by
# `cjq_core::purge_plan::compile`, and the engine reads its classes. A recipe
# compiler or a per-step key type of the stream crate's own is a second
# classification growing back.
if for f in crates/stream/src/*.rs; do
    awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f"
done | grep -v '^ *//' | grep -nE 'fn +compile_recipe\b|struct +(CompiledStep|StepSpec|StepKey)\b'; then
    echo "crates/stream/src classifies purge steps itself: use cjq_core::purge_plan::compile" >&2
    status=1
fi

# No twins: the pipeline steps exist once (crates/stream/src/pipeline.rs), plan
# lowering once (arena.rs). A second file defining one of them is the
# Executor/QueryRegistry copy growing back.
for name in post_element enforce_budget run_cap try_push_punctuation refuse_punct \
    push_untimed push_segment push_all_checkpointed snapshot_payload intern_plan; do
    owners=""
    for f in crates/stream/src/*.rs; do
        if awk -v def="fn $name[(<]" \
            '/^#\[cfg\(test\)\]/{exit} $0 ~ def {found=1; exit} END{exit !found}' "$f"; then
            owners="$owners $f"
        fi
    done
    if [ "$(echo $owners | wc -w)" -gt 1 ]; then
        echo "fn $name is defined in more than one file:$owners" >&2
        status=1
    fi
done

# One tuple step: the tuple path's unit is the segment (the runs between two
# punctuations), stepped by push_segment. A per-run driver beside it is the
# per-run fixed costs growing back.
if for f in crates/stream/src/*.rs; do
    awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f"
done | grep -v '^ *//' | grep -nE 'fn +push_run\b'; then
    echo "a per-run tuple step is back beside push_segment" >&2
    status=1
fi

# One cycle per punctuation run: under Eager an admitted punctuation marks a
# purge cycle owed (Core::owed), paid where its absence could be seen. A cycle
# run from try_push_punctuation is the cycle-per-punctuation schedule back.
if awk '/fn try_push_punctuation[(<]/{on=1; next} on&&/^    (pub\(crate\) )?fn /{exit} on' \
    crates/stream/src/pipeline.rs | grep -v '^ *//' | grep -qF 'run_purge_cycle('; then
    echo "try_push_punctuation runs a purge cycle: a punctuation owes one instead" >&2
    status=1
fi

# One operator pass per cycle unless the ports are `Υ`: only a purge from `Υ`
# can make another row dead (DESIGN.md §7), so run_purge_cycle repeats the
# mirror pass to its fixpoint and then decides every operator port once — or,
# where the leaf ports stand in for the mirror and a port recipe chains through
# them (`port_chains`), to their fixpoint. A purge_ops( call inside one of its
# loops that does not stop on `!chains` is the repeated operator pass back.
if awk '/fn run_purge_cycle[(<]/{on=1; next} on&&/^    (pub\(crate\) )?fn /{exit}
    on&&!depth&&/^ *(loop|while|for)( .*)? \{$/{match($0, /^ */); close_at=sprintf("%" RLENGTH "s}", ""); depth=1; ops=0; chains=0; next}
    depth&&$0==close_at{depth=0; if (ops && !chains) found=1; next}
    depth&&/purge_ops\(/&&!/^ *\/\//{ops=1}
    depth&&/\|\| !chains \{$/{chains=1}
    END{exit !found}' crates/stream/src/pipeline.rs; then
    echo "run_purge_cycle repeats purge_ops( where no port recipe chains through a port" >&2
    status=1
fi

# One arena: operators are built and stepped by arena.rs alone. Either call in
# a second file (join.rs, which defines them, and test code aside) is an
# engine lowering or routing a plan on its own again.
for call in 'JoinOperator::new(' '.process_segment('; do
    callers=""
    for f in crates/stream/src/*.rs; do
        [ "$f" = crates/stream/src/join.rs ] && continue
        if awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -v '^ *//' | grep -qF "$call"; then
            callers="$callers $f"
        fi
    done
    if [ "$(echo $callers | wc -w)" -gt 1 ]; then
        echo "$call is called from more than one file:$callers" >&2
        status=1
    fi
done

# One engine: an executor is a sealed one-tenant registry, so the registry's
# compile step is the only place outside each defining file that bootstraps a
# purge engine, lowers a plan, checks static certificates or closes a recipe
# set. A second non-test call site is the executor's own compile growing back.
for pair in 'purge.rs:PurgeEngine::shared(' 'arena.rs:.intern_plan(' \
    'certify.rs:static_certificates(' 'purge.rs:close_recipe_set('; do
    home=${pair%%:*} call=${pair#*:}
    sites=$(for f in crates/stream/src/*.rs; do
        [ "$f" = "crates/stream/src/$home" ] && continue
        awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -v '^ *//' | grep -F "$call" || true
    done | wc -l)
    if [ "$sites" -ne 1 ]; then
        echo "$call has $sites non-test call sites outside $home, not one" >&2
        status=1
    fi
done
if awk '/^pub enum SnapshotKind/{on=1} on{print} on&&/^}/{exit}' crates/stream/src/checkpoint.rs |
    grep -qE '^ +Exec\b'; then
    echo "SnapshotKind has an Exec variant again: an executor's snapshot is its registry's" >&2
    status=1
fi

# State has one owner: rows live in arena ports and the engine's mirrors,
# punctuations in the engine's stores. A store built outside purge.rs, or a
# port state outside join.rs and purge.rs, is an operator keeping rows or
# punctuations beside the engine again (as distinct.rs and disjoin.rs did).
for pair in 'purge.rs:PunctStore::new(' 'join.rs purge.rs:PortState::new('; do
    homes=${pair%%:*} call=${pair#*:}
    for f in crates/stream/src/*.rs; do
        case " $homes " in *" ${f##*/} "*) continue ;; esac
        if awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -v '^ *//' | grep -qF "$call"; then
            echo "$call is called in $f: state has one owner ($homes)" >&2
            status=1
        fi
    done
done

# One sharded plane: `parallel::Sharded<E>` wraps any engine, and its threaded
# run is the one call of `fan_out`. A second call site, or one of the three
# wrappers it replaced, is a per-engine sharded copy growing back.
calls=$(for f in crates/stream/src/*.rs; do
    awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f"
done | grep -v '^ *//' | grep -v 'fn fan_out' | grep -c 'fan_out(' || true)
if [ "$calls" -ne 1 ]; then
    echo "fan_out( is called from $calls places in crates/stream/src, not one" >&2
    status=1
fi
if grep -nE 'struct +(ShardedExecutor|ShardedRegistry|Fleet)\b' crates/stream/src/*.rs; then
    echo "a per-engine sharded wrapper is back beside parallel::Sharded" >&2
    status=1
fi

# One engine type: the pipeline is `QueryRegistry`'s own methods, an executor
# forwards to its registry, and the sharded plane is registries only, with one
# fold. A pipeline or shard trait, the executor-only sharded result, or a type
# parameter on `Sharded` is a second engine type growing back.
if for f in crates/stream/src/*.rs; do
    awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f"
done | grep -nE 'trait +(Pipeline|Shard)\b|ShardedRunResult|struct +Sharded *<'; then
    echo "a second engine type is back: trait Pipeline/Shard, ShardedRunResult or Sharded<E>" >&2
    status=1
fi

# One driving surface: the public push/run/checkpoint/restore methods of the
# engine types plus what `trait Engine` declares. 39 before the trait, 26 with
# three sharded wrappers beside it, 20 until `QueryRegistry::try_feed` went; a
# count above 19 is the per-engine method matrix growing back.
driving='^    pub fn (push|try_push|push_batch|try_push_batch|run|try_run|run_with_sink|try_run_with_sink|run_with_sinks|try_run_with_sinks|try_feed|finish|finish_detailed|push_checkpointed|commit_checkpoint|try_run_checkpointed|restore|try_resume|purge_cycle|admit)[(<]'
inherent=0
for f in exec registry parallel pipeline; do
    n=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "crates/stream/src/$f.rs" | grep -cE "$driving" || true)
    inherent=$((inherent + n))
done
declared=$(awk '/^pub trait Engine/{on=1} on&&/^    fn /{c++} on&&/^}/{exit} END{print c+0}' \
    crates/stream/src/pipeline.rs)
printf '%6d  driving methods (%d inherent + %d declared by trait Engine; at most 19)\n' \
    "$((inherent + declared))" "$inherent" "$declared"
if [ "$declared" -eq 0 ] || [ "$((inherent + declared))" -gt 19 ]; then
    echo "the driving surface grew past 19 methods (or trait Engine is gone)" >&2
    status=1
fi

# One index type: a port's probe and purge lookups share `KeyIndex`. Either of
# these names in state.rs is the second index family growing back.
if awk '/^#\[cfg\(test\)\]/{exit} {print}' crates/stream/src/state.rs |
    grep -nE '(struct|enum|type) +(PurgeKeys|PurgeIndex)\b'; then
    echo "crates/stream/src/state.rs defines a second index type" >&2
    status=1
fi

# No per-run key cache: a row probes the depth-0 index itself (or reuses the
# previous row's bucket when its key is the same), and an output row is copied
# through the operator's emit plan. Either name in join.rs is the per-run hash
# cache or the per-row layout lookup growing back.
if grep -nwE 'scratch_keys|copy_stream' crates/stream/src/join.rs; then
    echo "crates/stream/src/join.rs names a per-run key cache or copy_stream" >&2
    status=1
fi

# One behaviour: §5.1 punctuation purging is what a purge cycle does, and a
# purge pass has one way to find its candidates (the full scan lives in the
# reference engine, crates/oracle), not a knob. Either name as a config field
# anywhere is the second path growing back.
if grep -rnE '(purge_punctuations|purge_strategy) *:' crates src --include='*.rs'; then
    echo "purge_punctuations or purge_strategy is named as a config field" >&2
    status=1
fi

# One walk: the chained purge walk exists once (`PurgeEngine::walk`, behind
# `check_roots_with` and `explain`), and the verifier judges own-key verdicts
# against it in its per-cycle sweep. A second walk, the test-only `check`, or
# the sampled comparison against an in-engine explaining oracle is the
# lockstep copy growing back (the independent judge is `cjq-oracle`).
if for f in crates/stream/src/*.rs; do
    awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f"
done | grep -v '^ *//' |
    grep -nE 'fn check_impl\b|pub fn check\(|verify_state|verify_mirror_against_oracle|verify_against_oracle|ORACLE_SAMPLE'; then
    echo "a second chain walk or the in-engine oracle comparison is back" >&2
    status=1
fi

# One purge pass: an operator port is a meet of one recipe (`purge::Meet`), so
# ports and mirror streams share one pass body (`Meet::pass`: tracker
# collect) and one audit. One row test: a pass and an arrival verdict
# (`Meet::judge`) both call `all_prove_dead`, and a row is judged where it
# enters a tracked state — a port's deferred insert, a cold row's re-entry,
# a held mirror stream's insert. Another call site of any of these is a
# port's or a mirror's own pass or row test growing back.
for pair in '\.collect\(([^)]|$):1' 'certify::audit\(:1' \
    '\.all_prove_dead\(:2' '\.judge\(:3'; do
    call=${pair%:*} want=${pair##*:}
    sites=$(for f in crates/stream/src/*.rs; do
        awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f"
    done | grep -v '^ *//' | grep -cE "$call" || true)
    if [ "$sites" -ne "$want" ]; then
        echo "$call has $sites non-test call sites in crates/stream/src, not $want" >&2
        status=1
    fi
done

# Logical snapshots: a snapshot holds rows, punctuations and the punctuation
# run admitted since the last purge cycle, and restore rebuilds what the
# engine derives from them. A tracker cursor, a fresh-row watermark, a log
# base or slot layout named in a `write_state` body is an engine internal
# back in the file.
internals='fresh_from|cursor|delta_base|retired_base|evict_front|self\.base\b'
for f in crates/stream/src/*.rs; do
    if awk '/^#\[cfg\(test\)\]/{exit}
        /fn write_state[(<]/{match($0, /^ */); close_at=sprintf("%" RLENGTH "s}", ""); on=1}
        on{print}
        on&&$0==close_at{on=0}' "$f" | grep -v '^ *//' | grep -qE "$internals"; then
        echo "a write_state body in $f names a cursor, watermark or slot layout" >&2
        status=1
    fi
done

# One table: every `Metrics`/`StatePoint` field is a row of a `facts!` table in
# metrics.rs, and `merge_from`/`write_state`/`read_state` exist only as that
# macro's output. A field name inside the macro definition, or one of those
# functions written out beside it, is the hand-kept list growing back.
metrics=crates/stream/src/metrics.rs
nontest=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$metrics")
macro=$(echo "$nontest" | awk '/^macro_rules! facts/{on=1} on{print} on&&/^}/{exit}')
fields=$(echo "$nontest" | sed -n 's/^ *pub \([a-z_0-9]*\): .*/\1/p')
[ -n "$macro" ] && [ -n "$fields" ] || { echo "no facts! table in $metrics" >&2; status=1; }
for field in $fields; do
    if echo "$macro" | grep -v '^ *//' | grep -qw "$field"; then
        echo "field name $field appears inside macro_rules! facts" >&2
        status=1
    fi
done
for name in merge_from write_state read_state; do
    if [ "$(echo "$nontest" | grep -c "fn $name(")" != "$(echo "$macro" | grep -c "fn $name(")" ]; then
        echo "fn $name is written out in $metrics beside the facts! macro" >&2
        status=1
    fi
done
exit $status

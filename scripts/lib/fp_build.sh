# Shared by scripts/profile.sh and scripts/alloc_sites.sh, which source
# it: a copy of the working tree whose benchmark is patched with an
# instrument and built with frame pointers and line tables, so the
# checkout itself, benchmark/ included, is never written.
#
#   fp_copy TOOL         check the platform, find the tree root from the
#                        sourcing script's location, copy the tree (build
#                        outputs left out) into "$work", removed on exit
#   fp_patched FILE RE…  fail unless FILE has a line matching each RE
#   fp_run ARG…          build the copy's benchmark and run it with ARG…
#
# The symbolising half, for the dumps the instruments write, is
# scripts/lib/symbolize.py; "$lib" names the copy's scripts/lib.

fp_copy() {
    tool=$1
    if [ "$(uname -s)" != Linux ] || [ "$(uname -m)" != x86_64 ]; then
        echo "$tool: x86_64 Linux only" >&2
        exit 1
    fi
    root=$(cd "$(dirname "$0")/.." && pwd)
    if [ ! -f "$root/benchmark/src/main.rs" ] || [ ! -d "$root/crates" ]; then
        echo "$tool: $root is not the repository's root" >&2
        exit 1
    fi
    work=$(mktemp -d "${TMPDIR:-/tmp}/sc-$tool.XXXXXX")
    trap 'rm -rf "$work"' EXIT INT TERM
    (cd "$root" && tar -c --exclude=./.git --exclude=./target --exclude=./benchmark/target \
        --exclude=./benchmark/out --exclude=./.bench_build .) | tar -x -C "$work"
    # The copy's, so that Python's bytecode cache lands there too.
    lib=$work/scripts/lib
}

fp_patched() {
    file=$1
    shift
    for re in "$@"; do
        if ! grep -q "$re" "$file"; then
            echo "$tool: ${file#"$work"/} no longer has the lines the instrument is patched in at" >&2
            exit 1
        fi
    done
}

fp_run() {
    echo "building a frame-pointer copy of the benchmark in $work ..." >&2
    (cd "$work" && RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
        cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@")
}

"""The parity checks against `hcf_python` catch order, key and
neighbour-table bugs in the HCF kernel. Each test builds `_native.c` with one bug planted by exact
source substitution, and the tie, checkerboard, clamp-end,
bitmap-boundary, signed-zero and spread-magnitude corpora must find it. A planted pattern must occur exactly
once in the source, so an edit to the kernel that moves it fails here
instead of leaving a mutant that no longer differs from the kernel."""

from pathlib import Path

import pytest

from shadowseg import _native
from test_hcf_kernel import assert_same_as_python, hcf_corpora

MUTANTS = {
    # equal scores ordered by the larger site first
    "tie-break-reversed": ("a.score == b.score && a.site < b.site",
                           "a.score == b.score && a.site > b.site"),
    # the frontier's top taken from its buckets even when the spill heap's comes first
    "heap-top-ignored": ("return top.site >= 0 && before(top, best) ? top : best;",
                         "return best;"),
    # the static tier's top rekeyed in place, never sifted down
    "rekeyed-block-not-sifted": ("            block_sift_down(blocks, n_keyed, 0);\n", ""),
    # a bucket's word of low made non-empty without its bit of top
    "top-bit-not-set": ("    fr->top |= bit(b >> 6);\n", ""),
    # the bit of top cleared with its bucket's, while the word of low is still non-empty
    "top-bit-cleared-early": ("fr->top &= ~((uint64_t)(*low == 0) << (b >> 6));",
                              "fr->top &= ~((uint64_t)1 << (b >> 6));"),
    # a touched uncommitted site's middle potential summed as g0 + g1 + g2 - lo - hi
    "middle-by-sum": ("frontier_set(&fr, site, (uint32_t)z, gap(g0, g1, g2));",
                      "double lo = g0 < g1 ? g0 : g1, hi = g0 < g1 ? g1 : g0;\n"
                      "lo = g2 < lo ? g2 : lo;\n"
                      "hi = g2 > hi ? g2 : hi;\n"
                      "frontier_set(&fr, site, (uint32_t)z, lo - (g0 + g1 + g2 - lo - hi));"),
    # the rescan of a block keeps its last fresh site of the lowest score, not its first
    "block-rescan-last-tie": ("if (labels[y] == FRESH && site[y].key < key.score)",
                              "if (labels[y] == FRESH && site[y].key <= key.score)"),
    # a bucket's scan reads a site's third potential for its key
    "record-key-slot": ("Entry e = {site[z].key, z};", "Entry e = {site[z].g[2], z};"),
    # the kernel's own neighbour table: the last diagonal at squared distance 1
    "diagonal-at-distance-1": ("{2.0, 1.0, 2.0, 1.0, 1.0, 2.0, 1.0, 2.0};",
                               "{2.0, 1.0, 2.0, 1.0, 1.0, 2.0, 1.0, 1.0};"),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_parity_corpora_catch_the_mutant(mutant, tmp_path, monkeypatch):
    pattern, replacement = MUTANTS[mutant]
    source = Path(_native._SOURCE).read_text()
    assert source.count(pattern) == 1
    (tmp_path / "_native.c").write_text(source.replace(pattern, replacement))
    lib = _native._load(str(tmp_path / "_native.c"))
    monkeypatch.setattr(_native, "library", lambda: lib)
    caught = 0
    for u1, u2, prior in hcf_corpora():
        try:
            assert_same_as_python(u1, u2, prior)
        except AssertionError:
            caught += 1
    assert caught > 0

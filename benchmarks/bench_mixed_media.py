"""Ablation: packaging-aware media pricing (Section 2.2's locality)."""

from conftest import measure

from repro.experiments import mixed_media


def test_mixed_media(benchmark, scale):
    result, _ = measure(benchmark, mixed_media.run, scale=scale)
    print("\n" + result.format_table())

    for row in result.rows_list:
        # Copper is never more expensive than optical.
        assert row.packaging_aware <= row.all_optical
    baseline = result.rows_list[0]
    # A meaningful share of baseline power comes back once copper links
    # are priced as copper.
    assert baseline.saving > 0.05
    assert result.copper_channel_fraction > 0.3

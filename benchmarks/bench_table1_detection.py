"""T1 — Table 1: manifest-extension protocol detection.

Regenerates the extension table and micro-benchmarks the detector over
the full dataset's URLs (the §3 methodology applies it to every view).
"""

from benchmarks.conftest import run_and_save, save_lines


def test_table1_extension_mapping(benchmark, eco_full):
    rows = run_and_save(benchmark, eco_full, "T1")
    assert all(row["protocol"] == row["detected"] for row in rows)


def test_detection_throughput_over_dataset(benchmark, dataset_full):
    urls = [record.url for record in dataset_full.records[:50_000]]

    def classify_all():
        from repro.packaging.manifest.detect import detect_protocol_or_none

        return sum(
            1 for url in urls if detect_protocol_or_none(url) is not None
        )

    classified = benchmark(classify_all)
    assert classified == len(urls)  # every synthetic URL classifiable
    save_lines(
        "T1_throughput",
        [
            "Table 1 detector over dataset URLs:",
            f"  urls classified: {classified}/{len(urls)}",
        ],
    )

-- BENCH_scrub.json's workload, run on the jackson video before each
-- corruption site: id-keyed detector views with enough records that
-- interior corruption leaves both a salvageable prefix and a
-- re-synchronizable suffix.
SELECT id, label FROM video CROSS APPLY ObjectDetector(frame) WHERE id < 120 AND label = 'car';
SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 200;
SELECT id FROM video CROSS APPLY ObjectDetector(frame) WHERE id >= 60 AND id < 180;

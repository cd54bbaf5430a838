-- BENCH_chaos.json's workload, run on the jackson video under each seeded
-- fault schedule: a degradable logical-UDF query, overlapping
-- physical-model queries exercising reuse, a predicate UDF and a
-- partially covered range.
SELECT id, label FROM video CROSS APPLY ObjectDetector(frame) WHERE id < 120 AND label = 'car';
SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 200;
SELECT id, label FROM video CROSS APPLY FasterRCNNResnet50(frame)
  WHERE id < 260 AND label = 'car' AND ColorDet(frame, bbox) = 'Gray';
SELECT id FROM video CROSS APPLY ObjectDetector(frame) WHERE id >= 60 AND id < 180;

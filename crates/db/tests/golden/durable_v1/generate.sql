-- Generates crates/db/tests/golden/durable_v1/{checkpoint.bin,wal.log}:
-- run through `wlsql --path DIR` on a fresh DIR. Two tables, a
-- checkpoint, then every kind of WAL record past it (the session ends
-- without another checkpoint, so the log keeps them).
SET threads = 1;
CREATE TABLE a AS WISCONSIN(12);
CREATE TABLE b AS WISCONSIN(5, 2, 7);
INSERT INTO a VALUES (12), (40), (13);
CHECKPOINT;
INSERT INTO a VALUES (100), (7), (7);
INSERT INTO b VALUES (3);
CREATE TABLE c AS WISCONSIN(6, 2, 3, 1.5);
INSERT INTO c VALUES (2), (2), (9);
CREATE TABLE gone AS WISCONSIN(4);
DROP TABLE gone;
INSERT INTO a VALUES (18446744073709551615);
SHOW TABLES;

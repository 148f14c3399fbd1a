"""Workload definitions: a shipped config plus the benchmark's own study sizes and checks.

Each workload runs the config file named in ``config``; only the replicate
count, the chunk size and, where ``kind`` is given, the statistic kind are
changed.  Chunks give every worker at least two blocks at two threads.
``test_calls`` is the number of single run_test calls timed for the
latency metrics; the tail percentile is the highest with ten calls beyond it.
``rounds`` is the least number of study rounds (each with its own master
seed), sized to last several seconds and shared between the run's two
processes; the test calls are spread over them, and their statistics and
rejections, pooled with the test calls', feed each process's distribution
checks.
``rate_band`` bounds the true rejection rate a correct program has.  The
size bands contain, with a wide margin, the rates of long size studies on
one core: ar-size 162/4000 = 0.041 (master seed 777001), poisson-size
118/2000 and 236/4000 = 0.059 (777001, 777002), ergodic-size 35/600 =
0.058 (777001).
"""

WORKLOADS = {
    "ergodic-size": {
        "config": "configs/ergodic_size.json",
        "replicates": 100,
        "chunk_size": 25,
        "test_calls": 40,
        # The harness takes at least 100 replicates; one round takes about 30 s on two cores.
        "rounds": 1,
        "rate_band": (0.02, 0.10),
    },
    "poisson-size": {
        "config": "configs/poisson_size.json",
        "replicates": 100,
        "chunk_size": 25,
        "test_calls": 100,
        "rounds": 4,
        "rate_band": (0.02, 0.10),
    },
    "small-noise-power-ks": {
        "config": "configs/small_noise_power.json",
        "kind": "ks",
        "replicates": 100,
        "chunk_size": 25,
        "test_calls": 200,
        "rounds": 3,
        # The shipped alternative is caught in every replicate at eps=0.01.
        "rate_band": (0.90, 1.0),
    },
    "ar-size": {
        "config": "configs/ar_size.json",
        "replicates": 200,
        "chunk_size": 50,
        "test_calls": 200,
        "rounds": 2,
        "rate_band": (0.02, 0.10),
    },
}

"""Foundation-layer module with a lazy thread-pool import."""


def run_all(jobs):
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(lambda job: job(), jobs))

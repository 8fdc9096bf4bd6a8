"""Application-layer module that drives rounds from a second thread."""

import threading


def start(loop):
    worker = threading.Thread(target=loop)
    worker.start()
    return worker

"""Fixtures shared by the test modules."""

import threading

import pytest

import tadkit.tensor


@pytest.fixture
def worker(monkeypatch):
    """``use(on)``: from now on in the test, every split pass hands a piece
    to a worker thread (on) or runs both in the caller (off), whatever the
    machine and its BLAS threads. Returns the worker's thread class, whose
    ``handed`` counts the pieces handed to it in the test."""

    class Worker(threading.Thread):
        handed = 0

        def start(self):
            Worker.handed += 1
            super().start()

    def use(on):
        monkeypatch.setattr(tadkit.tensor, "_WORKER", Worker if on else None)
        return Worker

    return use

"""Make the checkout's risbeam importable the way run.py does."""

from perfbench.run import bootstrap

bootstrap()

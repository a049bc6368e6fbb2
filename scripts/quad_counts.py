"""Counters of logvol's outer Gauss levels, installed by wrapping
logvol.integrate; scripts/dilog_ladder.py and scripts/annulus_decay.py print
them next to their wall times.  They do not vary between runs."""

import logvol.integrate as integrate


def count_outer_jobs() -> list:
    """Wrap integrate._adaptive_1d so that it counts the bisection rounds
    (calls of its integrand, each of which evaluates every open panel), the
    outer jobs (the 1-d integrals of every outer Gauss level) and those of
    them accepted in the first round, which open no panel in the second;
    returns the live [rounds, jobs, accepted in the first round]."""
    tally = [0, 0, 0]
    original = integrate._adaptive_1d

    def counted(f, jobs, *args):
        owners = []

        def round_(nodes, jobs_of):
            tally[0] += 1
            owners.append(jobs_of)
            return f(nodes, jobs_of)

        out = original(round_, jobs, *args)
        tally[1] += len(jobs)
        tally[2] += len(jobs) - (len(set(owners[1].tolist())) if len(owners) > 1 else 0)
        return out

    integrate._adaptive_1d = counted
    return tally


def count_cut_tables() -> list:
    """Wrap integrate._FiberSolver._cut_table so that it counts the cut
    tables built (one per fiber solver of a region with outer levels);
    returns the live [tables]."""
    tally = [0]
    original = integrate._FiberSolver._cut_table

    def counted(solver, var):
        tally[0] += 1
        return original(solver, var)

    integrate._FiberSolver._cut_table = counted
    return tally


def outer_line(jobs: list, tables: list) -> str:
    """The counters of count_outer_jobs and count_cut_tables as one line."""
    _, total, first = jobs
    share = first / total if total else 0.0
    return (f"outer jobs {total}, accepted in the first round {first} ({share:.1%}), "
            f"cut tables built {tables[0]}")

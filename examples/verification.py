"""Static analysis of services: the decision problems of Section 4.

Exercises one procedure per decidable Table 1 cell on small services, and
the sound bounded procedures on an undecidable cell:

* non-emptiness of SWS(PL, PL)    — AFA vector search (PSPACE);
* non-emptiness of SWS_nr(PL, PL) — SAT/DPLL (NP);
* validation of SWS(PL, PL)       — vector search, both output values;
* equivalence of SWS(PL, PL)      — product vector search;
* non-emptiness / equivalence of SWS_nr(CQ, UCQ) — UCQ≠ expansion and
  Klug-style containment;
* non-emptiness of SWS_nr(FO, FO) — bounded search with verdict UNKNOWN
  when the budget runs out (the cell is undecidable).

Run:  python examples/verification.py
"""

from repro.analysis import (
    equivalent_cq_nr,
    equivalent_pl,
    nonempty_cq_nr,
    nonempty_fo_bounded,
    nonempty_pl,
    nonempty_pl_nr_sat,
    validate_pl,
)
from repro.logic import pl
from repro.reductions.sat_to_sws import sat_instance_to_sws
from repro.workloads import travel
from repro.workloads.scaling import cq_diamond_sws, pl_counter_sws


def pl_analyses() -> None:
    print("=== SWS(PL, PL): PSPACE procedures ===")
    counter = pl_counter_sws(3)
    answer = nonempty_pl(counter)
    print(f"  8-period counter non-empty: {answer.verdict.value}; "
          f"shortest witness length {len(answer.witness)} (= 2^3)")

    validation = validate_pl(counter, False)
    print(f"  can the counter output false? {validation.verdict.value} "
          f"(witness length {len(validation.witness)})")

    different = equivalent_pl(pl_counter_sws(1), pl_counter_sws(2))
    print(f"  period-2 vs period-4 counters equivalent: "
          f"{different.verdict.value}; distinguishing word length "
          f"{len(different.witness)}")


def np_analyses() -> None:
    print("\n=== SWS_nr(PL, PL): the NP procedure is literally SAT ===")
    satisfiable = sat_instance_to_sws(pl.parse("(x | y) & (!x | z)"))
    unsat = sat_instance_to_sws(pl.parse("x & !x"))
    print(f"  service from satisfiable formula: "
          f"{nonempty_pl_nr_sat(satisfiable).verdict.value}")
    print(f"  service from contradiction:       "
          f"{nonempty_pl_nr_sat(unsat).verdict.value}")


def cq_analyses() -> None:
    print("\n=== SWS_nr(CQ, UCQ): expansion-based procedures ===")
    diamond2, diamond3 = cq_diamond_sws(2), cq_diamond_sws(3)
    answer = nonempty_cq_nr(diamond2)
    database, inputs = answer.witness
    print(f"  diamond(2) non-empty: {answer.verdict.value}; synthesized "
          f"witness: {database.total_rows()} database tuples, "
          f"{len(inputs)} input messages")
    print(f"  diamond(2) ≡ diamond(2): "
          f"{equivalent_cq_nr(diamond2, cq_diamond_sws(2)).verdict.value}")
    print(f"  diamond(2) ≡ diamond(3): "
          f"{equivalent_cq_nr(diamond2, diamond3).verdict.value}")


def fo_analyses() -> None:
    print("\n=== SWS_nr(FO, FO): undecidable — bounded, three-valued ===")
    service = travel.travel_service()
    blind = nonempty_fo_bounded(service, max_runs=2000, max_session_length=1)
    print(f"  travel τ1 non-empty, blind search: {blind.verdict.value} "
          f"({blind.detail})")
    hinted = nonempty_fo_bounded(
        service,
        hints=[(travel.sample_database(), travel.booking_request())],
    )
    print(f"  travel τ1 non-empty, with certificate: {hinted.verdict.value} "
          f"({hinted.detail})")
    print("  -> verifying a supplied witness is decidable; finding one is "
          "not (Theorem 4.1(1))")


def main() -> None:
    pl_analyses()
    np_analyses()
    cq_analyses()
    fo_analyses()


if __name__ == "__main__":
    main()

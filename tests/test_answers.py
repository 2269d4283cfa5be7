import json

from answers import PATH, answer_hash, problem_digest


def test_every_answer_of_the_corpus_is_unchanged():
    # 200 families, 200 grid, 40 sporadic and 150 check problems of seed 0, the large example,
    # x^3 - 4xy^2 with m = 1 at (K, H) = (100, 100) and (10, 10^5), K = 7/2 on both ring shapes, and 12 sextics and
    # septics
    problems = json.loads(PATH.read_text())["problems"]
    assert len(problems) == 609
    moved = [problem for problem in problems if answer_hash(problem) != problem["hash"]]
    assert not moved, f"{len(moved)} answers moved, the first: {moved[0]}"


def test_every_problem_of_the_corpus_is_unchanged():
    """The kept isolation, gate flag, caps and gate floors of the 609 corpus problems, as one hash.

    Recorded with

        PYTHONPATH=src python -c 'import json, sys; sys.path.insert(0, "tests"); from answers import PATH, \\
            problem_digest; print(problem_digest(json.loads(PATH.read_text())["problems"]))'
    """
    assert problem_digest(json.loads(PATH.read_text())["problems"]) == "73e0a61d1d8d5f40"

import json

from answers import PATH, answer_hash


def test_every_answer_of_the_corpus_is_unchanged():
    # 200 families, 200 grid, 40 sporadic and 150 check problems of seed 0, the large example,
    # x^3 - 4xy^2 with m = 1 at (K, H) = (100, 100) and (10, 10^5), K = 7/2 on both ring shapes, and 12 sextics and
    # septics
    problems = json.loads(PATH.read_text())["problems"]
    assert len(problems) == 609
    moved = [problem for problem in problems if answer_hash(problem) != problem["hash"]]
    assert not moved, f"{len(moved)} answers moved, the first: {moved[0]}"

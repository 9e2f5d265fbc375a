"""The Python example in README.md runs as a doctest against the library."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks, "README.md has no python example"
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    for k, block in enumerate(blocks):
        test = parser.get_doctest(block, {}, f"README.md python block {k}", str(README), 0)
        assert test.examples, "a README python block holds no example"
        runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.failed == 0 and result.attempted > 0

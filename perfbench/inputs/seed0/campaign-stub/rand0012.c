#include <stdio.h>

int c = 7;

int main(void) {
    if (c) {
        printf("%d\n", c);
    }
    if (c) {
    }
    c = 0;
    return 0;
}
